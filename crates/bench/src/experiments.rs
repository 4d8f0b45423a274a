//! The figure table and the one runner behind `reproduce`.
//!
//! [`FIGURES`] lists every table and figure of the paper's evaluation
//! (Section 7) plus four extension experiments, each with its caption and
//! the paper's qualitative claim. Every speedup figure is a `Grid` body:
//! one dataset, a row axis and a column axis over workload shape, method
//! lineup, Zipf α or cache size, rendered in the iso-test, time or
//! per-query-group view. A [`Session`] computes each dataset, grid and
//! baseline profile once, however many figures show it.

use crate::cli::ExpOptions;
use crate::harness::PairedRun;
use crate::harness::{measure, ratio, run_baseline, run_engine, run_paired, speedup, AggStats};
use crate::report::{fmt_duration, fmt_mb, fmt_speedup, Report, Table};
use igq_core::{IgqConfig, IgqEngine, IgqSuperEngine, QueryOutcome, ReplacementPolicy};
use igq_features::PathConfig;
use igq_graph::stats::DatasetStats;
use igq_graph::{Graph, GraphStore};
use igq_iso::MatchConfig;
use igq_methods::{CtIndex, CtIndexConfig, Ggsx, GgsxConfig, Grapes, GrapesConfig};
use igq_methods::{MethodKind, SubgraphMethod, TrieSupergraphMethod};
use igq_workload::datasets::{aids_like, aids_like_bonds};
use igq_workload::{DatasetKind, Distribution, QueryGenerator, QueryWorkloadSpec};
use serde_json::{json, Value};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// A query-workload shape: (graph pick is Zipf, node pick is Zipf).
type Shape = (bool, bool);

const ALL_SHAPES: [Shape; 4] = [(false, false), (false, true), (true, false), (true, true)];

/// The parameters of one paired baseline-vs-iGQ run; `cache` is the
/// paper-scale `(C, W)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    shape: Shape,
    alpha: f64,
    method: MethodKind,
    cache: (usize, usize),
}

/// zipf-zipf, α = 1.4, Grapes(k), C = 500, W = 100: what an axis leaves alone.
const DEFAULT_CELL: Cell = Cell {
    shape: (true, true),
    alpha: 1.4,
    method: MethodKind::GrapesN,
    cache: (500, 100),
};

/// The cell parameter a grid axis varies.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Axis {
    Shapes(&'static [Shape]),
    Methods(&'static [MethodKind]),
    Alphas(&'static [f64]),
    Caches(&'static [(usize, usize)]),
    /// One run, whose query-size groups are the columns.
    Groups,
}

impl Axis {
    /// The axis's header and one labelled cell per entry, each `base`
    /// with this axis's parameter set.
    fn cells(self, base: Cell, threads: usize) -> (&'static str, Vec<(String, Cell)>) {
        let cells = match self {
            Axis::Shapes(v) => v
                .iter()
                .map(|&shape| (shape_label(shape), Cell { shape, ..base }))
                .collect(),
            Axis::Methods(v) => v
                .iter()
                .map(|&method| (method.name(threads), Cell { method, ..base }))
                .collect(),
            Axis::Alphas(v) => v
                .iter()
                .map(|&alpha| (alpha.to_string(), Cell { alpha, ..base }))
                .collect(),
            Axis::Caches(v) => v
                .iter()
                .map(|&cache| (cache.0.to_string(), Cell { cache, ..base }))
                .collect(),
            Axis::Groups => vec![(String::new(), base)],
        };
        let name = match self {
            Axis::Shapes(_) => "workload",
            Axis::Methods(_) => "method",
            Axis::Alphas(_) => "alpha",
            Axis::Caches(_) => "cache C",
            Axis::Groups => "group",
        };
        (name, cells)
    }
}

/// `uni-uni`, `uni-zipf`, `zipf-uni` or `zipf-zipf`.
fn shape_label((graph_zipf, node_zipf): Shape) -> String {
    let pick = |zipf| if zipf { "zipf" } else { "uni" };
    format!("{}-{}", pick(graph_zipf), pick(node_zipf))
}

/// A speedup figure's body: one paired run per (row, column) cell of
/// `queries` paper-scale queries over `dataset`.
#[derive(Debug, PartialEq)]
struct Grid {
    dataset: DatasetKind,
    queries: usize,
    base: Cell,
    rows: Axis,
    cols: Axis,
}

/// What a figure computes; a grid shows iso-test (`false`) or time
/// (`true`) speedups.
#[derive(Debug)]
enum Body {
    Table1,
    TimeBreakdown,
    Candidates(DatasetKind),
    Grid(&'static Grid, bool),
    IndexSizes,
    Supergraph,
    PolicyAblation,
    EdgeLabels,
}

/// One reproducible table or figure.
#[derive(Debug)]
pub struct Figure {
    /// The `reproduce` argument, archive file name and REPRODUCTION.md anchor.
    pub id: &'static str,
    /// The paper's caption.
    pub caption: &'static str,
    /// The paper's qualitative claim.
    pub claim: &'static str,
    body: Body,
}

/// The speedup figures' grids; figures showing one grid in two views
/// share its runs.
#[rustfmt::skip]
impl Grid {
    const fn new(dataset: DatasetKind, queries: usize, base: Cell, rows: Axis, cols: Axis) -> Grid {
        Grid { dataset, queries, base, rows, cols }
    }
    const fn dense(dataset: DatasetKind, alpha: f64) -> Grid {
        let caches = Axis::Caches(&[(100, 20), (200, 20), (300, 20)]);
        Grid::new(dataset, 500, Cell { alpha, ..DEFAULT_CELL }, caches, Axis::Groups)
    }
    const AIDS_LINEUP: Grid = Grid::new(DatasetKind::Aids, 3_000, DEFAULT_CELL, Axis::Shapes(&ALL_SHAPES), Axis::Methods(MethodKind::PAPER));
    const PDBS_LINEUP: Grid = Grid::new(DatasetKind::Pdbs, 3_000, DEFAULT_CELL, Axis::Shapes(&ALL_SHAPES), Axis::Methods(MethodKind::PAPER));
    const ZIPF_SWEEP: Grid = Grid::new(DatasetKind::Pdbs, 3_000, DEFAULT_CELL, Axis::Alphas(&[1.1, 1.4, 2.0]), Axis::Shapes(&[(false, true), (true, false), (true, true)]));
    const PPI_GROUPS: Grid = Grid::dense(DatasetKind::Ppi, 1.4);
    const SYNTH_GROUPS: Grid = Grid::dense(DatasetKind::Synthetic, 2.4);
    const CACHE_SWEEP: Grid = Grid::new(DatasetKind::Pdbs, 5_000, DEFAULT_CELL, Axis::Caches(&[(500, 100), (1_000, 200), (1_500, 300)]), Axis::Shapes(&ALL_SHAPES));
    const GCODE_LINEUP: Grid = Grid::new(DatasetKind::Aids, 3_000, DEFAULT_CELL, Axis::Shapes(&[(true, true)]), Axis::Methods(&MethodKind::EXTENDED));
}

const fn fig(id: &'static str, caption: &'static str, claim: &'static str, body: Body) -> Figure {
    Figure {
        id,
        caption,
        claim,
        body,
    }
}

/// Every reproducible table and figure, in the paper's order, then the
/// extension experiments.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    fig("table1", "Table 1: Characteristics of Datasets (synthesized)",
        "full scale: AIDS 62 labels / 40000 graphs / avg degree 2.09, PDBS 10/600/2.13, PPI 46/20/9.23, Synthetic 20/1000/19.52",
        Body::Table1),
    fig("fig01_time_breakdown", "Fig. 1: Dominance of Verification Time (filtering% vs verification%)",
        "verification dominates query time (>50%) for every method, more so on PDBS's large graphs than on AIDS",
        Body::TimeBreakdown),
    fig("fig02_candidates_aids", "Fig. 2: Avg Candidates / Answers / False Positives (AIDS)",
        "every method returns the same answers; false positives differ by method",
        Body::Candidates(DatasetKind::Aids)),
    fig("fig03_candidates_pdbs", "Fig. 3: Avg Candidates / Answers / False Positives (PDBS)",
        "every method returns the same answers; false positives differ by method, CT-Index's ratio is the highest",
        Body::Candidates(DatasetKind::Pdbs)),
    fig("fig07_iso_speedup_aids", "Fig. 7: Speedup in #Subgraph Isomorphism Tests (AIDS)",
        "iGQ cuts iso tests for every method and workload (5x-11x at full scale); zipf-zipf gains more than uni-uni",
        Body::Grid(&Grid::AIDS_LINEUP, false)),
    fig("fig08_iso_speedup_pdbs", "Fig. 8: Speedup in #Subgraph Isomorphism Tests (PDBS)",
        "iGQ cuts iso tests for every method and workload; zipf-zipf gains more than uni-uni",
        Body::Grid(&Grid::PDBS_LINEUP, false)),
    fig("fig09_iso_speedup_zipf", "Fig. 9: Iso-Test Speedup vs Zipf Skew α (PDBS, Grapes(6))",
        "iso-test speedup rises with α (more skew, more sub/supergraph reuse)",
        Body::Grid(&Grid::ZIPF_SWEEP, false)),
    fig("fig10_iso_speedup_ppi_groups", "Fig. 10: Iso-Test Speedup by Query Group (PPI, Grapes(6), zipf-zipf α=1.4)",
        "overall speedup rises with C (2.18 / 2.45 / 2.53); single groups may dip as they share one cache",
        Body::Grid(&Grid::PPI_GROUPS, false)),
    fig("fig11_iso_speedup_synth_groups", "Fig. 11: Iso-Test Speedup by Query Group (Synthetic, Grapes(6), zipf-zipf α=2.4)",
        "overall speedup rises with C; single groups may dip as they share one cache",
        Body::Grid(&Grid::SYNTH_GROUPS, false)),
    fig("fig12_time_speedup_aids", "Fig. 12: Speedup in Query Processing Time (AIDS)",
        "iGQ is faster for every method and workload, by less than its iso-test speedup",
        Body::Grid(&Grid::AIDS_LINEUP, true)),
    fig("fig13_time_speedup_pdbs", "Fig. 13: Speedup in Query Processing Time (PDBS)",
        "iGQ is faster for every method and workload, by less than its iso-test speedup",
        Body::Grid(&Grid::PDBS_LINEUP, true)),
    fig("fig14_time_speedup_cache", "Fig. 14: Query-Time Speedup vs Cache Size (PDBS, Grapes(6), 5000 queries)",
        "larger caches prune more of the expensive tests, so speedups grow with C",
        Body::Grid(&Grid::CACHE_SWEEP, true)),
    fig("fig15_time_speedup_zipf", "Fig. 15: Query-Time Speedup vs Zipf Skew α (PDBS, Grapes(6))",
        "time speedup rises with α",
        Body::Grid(&Grid::ZIPF_SWEEP, true)),
    fig("fig16_time_speedup_ppi_groups", "Fig. 16: Query-Time Speedup by Query Group (PPI, Grapes(6), zipf-zipf α=1.4)",
        "overall time speedup rises with C",
        Body::Grid(&Grid::PPI_GROUPS, true)),
    fig("fig17_time_speedup_synth_groups", "Fig. 17: Query-Time Speedup by Query Group (Synthetic, Grapes(6), zipf-zipf α=2.4)",
        "overall time speedup rises with C",
        Body::Grid(&Grid::SYNTH_GROUPS, true)),
    fig("fig18_index_sizes", "Fig. 18: Absolute Index Sizes in MB (AIDS)",
        "iGQ's index is a negligible overhead (<1% of a base index); the larger base configs cost more than the defaults",
        Body::IndexSizes),
    fig("supergraph_speedup", "Extension: Supergraph-Query Speedup (AIDS, trie method, Section 4.4 engine)",
        "iGQ speeds up supergraph queries too (Section 4.4; the paper omits the numbers)",
        Body::Supergraph),
    fig("ablation_replacement", "Ablation: Utility Replacement Policy vs Classic Baselines (AIDS, GGSX)",
        "the Section 5.1 utility policy needs the fewest iso tests of the five policies",
        Body::PolicyAblation),
    fig("ext_gcode_lineup", "Extension: gCode joins the method lineup (AIDS, zipf-zipf)",
        "iGQ speeds up any method it wraps, gCode included",
        Body::Grid(&Grid::GCODE_LINEUP, false)),
    fig("ext_edge_labels", "Extension: edge-label generalization (plain vs bond-labeled twins)",
        "bond labels shrink answer sets while iGQ's speedup holds on both variants",
        Body::EdgeLabels),
];

/// The figure named `id`.
pub fn figure(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

/// Scales a paper quantity, flooring at `min`.
fn scaled(paper: usize, scale: f64, min: usize) -> usize {
    ((paper as f64 * scale).round() as usize).max(min)
}

type GridRuns = Vec<Vec<(Cell, PairedRun)>>;
type Profile = Vec<(String, AggStats)>;

/// Runs figures, sharing datasets, grids and baseline profiles between
/// them.
#[derive(Default)]
pub struct Session {
    opts: ExpOptions,
    queries: Option<usize>,
    datasets: Vec<(DatasetKind, Arc<GraphStore>)>,
    grids: Vec<(&'static Grid, Rc<GridRuns>)>,
    profiles: Vec<(DatasetKind, Rc<Profile>)>,
}

impl Session {
    /// A session generating every dataset at `opts.scale`.
    pub fn new(opts: ExpOptions) -> Session {
        Session {
            opts,
            ..Default::default()
        }
    }

    /// Uses `store` wherever a figure draws `kind`'s dataset, instead of
    /// generating it at `opts.scale`.
    pub fn with_dataset(mut self, kind: DatasetKind, store: GraphStore) -> Session {
        self.datasets.push((kind, Arc::new(store)));
        self
    }

    /// Gives every query stream but the policy ablation's exactly `n`
    /// queries, instead of the paper's stream length times `opts.scale`.
    pub fn with_queries(mut self, n: usize) -> Session {
        self.queries = Some(n);
        self
    }

    /// Runs `fig` into a report whose first line names the options.
    pub fn run(&mut self, fig: &Figure) -> Report {
        let o = self.opts;
        let mut report = Report::new(fig.id, fig.caption);
        report.line(format!(
            "scale={} seed={:#x} threads={}",
            o.scale, o.seed, o.threads
        ));
        let r = &mut report;
        match fig.body {
            Body::Table1 => self.table1(r),
            Body::TimeBreakdown => self.time_breakdown(r),
            Body::Candidates(kind) => self.candidates(kind, r),
            Body::Grid(grid, time) => self.render_grid(grid, time, r),
            Body::IndexSizes => self.index_sizes(r),
            Body::Supergraph => self.supergraph(r),
            Body::PolicyAblation => self.policy_ablation(r),
            Body::EdgeLabels => self.edge_labels(r),
        }
        report.line(format!("\npaper: {}", fig.claim));
        report
    }

    /// A query-stream length: `paper` queries scaled and floored at
    /// `min`, unless set by [`Session::with_queries`].
    fn stream_len(&self, paper: usize, scale: f64, min: usize) -> usize {
        self.queries.unwrap_or_else(|| scaled(paper, scale, min))
    }

    fn dataset(&mut self, kind: DatasetKind) -> Arc<GraphStore> {
        if let Some((_, store)) = self.datasets.iter().find(|(k, _)| *k == kind) {
            return Arc::clone(store);
        }
        let store = Arc::new(kind.generate_scaled(self.opts.scale, self.opts.seed));
        self.datasets.push((kind, Arc::clone(&store)));
        store
    }

    /// `cell`'s query stream over `store` and its iGQ config, all scaled
    /// together so cache-hit dynamics survive reduced scale; the window
    /// doubles as the warm-up.
    fn stream(&self, store: &GraphStore, queries: usize, cell: &Cell) -> (Vec<Graph>, IgqConfig) {
        let (s, seed) = (self.opts.scale, self.opts.seed ^ 0xBEEF);
        let count = self.stream_len(queries, s, 40);
        let (g, n) = cell.shape;
        let spec = QueryWorkloadSpec::named(g, n, cell.alpha, count, seed);
        let window = scaled(cell.cache.1, s, 5);
        let config = IgqConfig::builder()
            .cache_capacity(scaled(cell.cache.0, s, window.max(10)))
            .window(window)
            .build()
            .expect("scaling keeps W <= C");
        (spec.generate(store), config)
    }

    fn grid(&mut self, grid: &'static Grid) -> Rc<GridRuns> {
        if let Some((_, runs)) = self.grids.iter().find(|(g, _)| *g == grid) {
            return Rc::clone(runs);
        }
        let (store, threads) = (self.dataset(grid.dataset), self.opts.threads);
        let mut runs = Vec::new();
        for (_, row) in grid.rows.cells(grid.base, threads).1 {
            let mut line = Vec::new();
            for (_, cell) in grid.cols.cells(row, threads).1 {
                let (queries, config) = self.stream(&store, grid.queries, &cell);
                let run = run_paired(&store, cell.method, threads, &queries, config);
                line.push((cell, run));
            }
            runs.push(line);
        }
        let runs = Rc::new(runs);
        self.grids.push((grid, Rc::clone(&runs)));
        runs
    }

    fn render_grid(&mut self, grid: &'static Grid, time: bool, report: &mut Report) {
        let (name, rows) = grid.rows.cells(grid.base, self.opts.threads);
        let sizes = igq_workload::PAPER_QUERY_SIZES;
        let by_group = grid.cols == Axis::Groups;
        let mut header = vec![name.to_owned()];
        if by_group {
            header.extend(sizes.iter().map(|s| format!("Q{s}")));
            header.push("overall".to_owned());
        } else {
            let cols = grid.cols.cells(grid.base, self.opts.threads).1;
            header.extend(cols.into_iter().map(|(label, _)| label));
        }
        let mut table = Table::new(header);
        let mut json = Vec::new();
        for ((label, _), runs) in rows.into_iter().zip(self.grid(grid).iter()) {
            let mut line = vec![label];
            for (cell, run) in runs {
                let groups = run.group_speedups(time);
                if by_group {
                    let show = |s| groups.get(s).map_or("-".to_owned(), |&x| fmt_speedup(x));
                    line.extend(sizes.iter().map(show));
                }
                line.push(fmt_speedup(run.speedup(time)));
                let (base, igq) = (&run.baseline, &run.igq);
                json.push(json!({
                    "workload": shape_label(cell.shape), "alpha": cell.alpha,
                    "cache": cell.cache.0, "window": cell.cache.1, "method": run.method,
                    "iso_speedup": run.speedup(false), "time_speedup": run.speedup(true),
                    "baseline_avg_iso_tests": base.avg_iso_tests(), "igq_avg_iso_tests": igq.avg_iso_tests(),
                    "baseline_iso_tests": base.iso_tests, "igq_iso_tests": igq.iso_tests,
                    "baseline_answers": base.answers, "igq_answers": igq.answers,
                    "avg_candidates": base.avg_candidates(), "avg_false_positives": base.avg_false_positives(),
                    "exact_hits": igq.exact_hits, "empty_shortcuts": igq.empty_shortcuts,
                    "cached_queries": run.cached_queries, "index_bytes": run.index_bytes, "groups": groups,
                }));
            }
            table.row(line);
        }
        let (dataset, queries) = (grid.dataset.name(), grid.queries);
        report.line(format!(
            "dataset={dataset} queries={queries}·scale, warm-up W excluded"
        ));
        report.table(&table);
        report.json = Value::Array(json);
    }

    fn table1(&mut self, report: &mut Report) {
        let mut json = serde_json::Map::new();
        let (dataset, labels, graphs, degree) = ("dataset", "labels", "graphs", "avg deg");
        report.line(format!("{dataset:<10} {labels:>7} {graphs:>9} {degree:>7}"));
        for kind in DatasetKind::ALL {
            let stats = DatasetStats::of(&self.dataset(kind));
            report.line(stats.table_row(kind.name()));
            let value = serde_json::to_value(&stats).expect("stats serialize");
            json.insert(kind.name().to_owned(), value);
        }
        report.json = Value::Object(json);
    }

    /// Every paper method alone on `kind`'s uni-uni stream, nothing warmed.
    fn profile(&mut self, kind: DatasetKind) -> Rc<Profile> {
        if let Some((_, p)) = self.profiles.iter().find(|(k, _)| *k == kind) {
            return Rc::clone(p);
        }
        let (store, threads) = (self.dataset(kind), self.opts.threads);
        let uni = Cell {
            shape: (false, false),
            ..DEFAULT_CELL
        };
        let (queries, _) = self.stream(&store, 3_000, &uni);
        let mut profile = Vec::new();
        for mk in MethodKind::PAPER {
            let agg = run_baseline(mk.build(&store, threads).as_ref(), &queries, 0);
            profile.push((mk.name(threads), agg));
        }
        let profile = Rc::new(profile);
        self.profiles.push((kind, Rc::clone(&profile)));
        profile
    }

    fn time_breakdown(&mut self, report: &mut Report) {
        let mut records = Vec::new();
        for kind in [DatasetKind::Aids, DatasetKind::Pdbs] {
            for (name, agg) in self.profile(kind).iter() {
                let total = agg.total_time.as_secs_f64().max(f64::MIN_POSITIVE);
                let pct = |part: std::time::Duration| 100.0 * part.as_secs_f64() / total;
                records.push(json!({
                    "dataset": kind.name(), "method": name,
                    "filter_pct": pct(agg.filter_time), "verify_pct": pct(agg.verify_time),
                    "avg_query_time": fmt_duration(agg.avg_time()),
                }));
            }
        }
        report.line("uni-uni workload, methods alone");
        report.records(records);
    }

    fn candidates(&mut self, kind: DatasetKind, report: &mut Report) {
        let mut records = Vec::new();
        for (name, agg) in self.profile(kind).iter() {
            let (cands, fps) = (agg.avg_candidates(), agg.avg_false_positives());
            records.push(json!({
                "method": name, "avg_candidates": cands, "avg_answers": agg.avg_answers(),
                "avg_false_positives": fps, "fp_pct": 100.0 * fps / cands.max(f64::MIN_POSITIVE),
            }));
        }
        report.line("uni-uni workload, methods alone");
        report.records(records);
    }

    fn index_sizes(&mut self, report: &mut Report) {
        let (store, t) = (self.dataset(DatasetKind::Aids), self.opts.threads);
        let (queries, config) = self.stream(&store, 3_000, &DEFAULT_CELL);
        let ggsx5 = GgsxConfig {
            max_path_len: 5,
            ..Default::default()
        };
        let grapes5 = GrapesConfig {
            max_path_len: 5,
            ..Default::default()
        };
        let larger: [Box<dyn SubgraphMethod>; 3] = [
            Box::new(Ggsx::build(&store, ggsx5)),
            Box::new(Grapes::build(&store, grapes5)),
            Box::new(CtIndex::build(&store, CtIndexConfig::larger())),
        ];
        let configs = [
            (MethodKind::Ggsx, "paths<=4", "paths<=5"),
            (MethodKind::Grapes1, "paths<=4", "paths<=5"),
            (MethodKind::CtIndex, "t6/c8", "t7/c9 x2 bits"),
        ];
        let mut sizes = Vec::new();
        for ((kind, default, large), larger) in configs.into_iter().zip(larger) {
            let bytes = kind.build(&store, t).index_size_bytes();
            sizes.push((kind.name(t), format!("{default} (default)"), bytes));
            sizes.push((
                kind.name(t),
                format!("{large} (larger)"),
                larger.index_size_bytes(),
            ));
        }
        // iGQ: fill the cache with the zipf-zipf stream through GGSX, then
        // measure the query-index footprint.
        let engine =
            IgqEngine::new(MethodKind::Ggsx.build(&store, t), config).expect("valid config");
        run_engine(&engine, &queries, 0);
        let cached = format!(
            "C={} cached={}",
            config.cache_capacity,
            engine.cached_queries()
        );
        sizes.push(("iGQ".to_owned(), cached, engine.igq_index_size_bytes()));
        let records = sizes.into_iter().map(|(index, config, bytes)| {
            json!({ "index": index, "config": config, "bytes": bytes, "size": fmt_mb(bytes) })
        });
        report.records(records.collect());
    }

    fn supergraph(&mut self, report: &mut Report) {
        let (s, seed) = (self.opts.scale, self.opts.seed);
        // Dataset: small molecule graphs; queries: larger fragments carved
        // from a twin of it, so dataset graphs are contained in them.
        let store = self.dataset(DatasetKind::Aids);
        let big = DatasetKind::Aids.generate_scaled(s, seed ^ 0xA5A5);
        let (zipf, uni) = (Distribution::Zipf(2.0), Distribution::Uniform);
        let mut gen = QueryGenerator::with_sizes(&big, zipf, uni, vec![24, 32, 40], seed ^ 0x50F7);
        let queries = gen.take(self.stream_len(1_000, s, 40));
        let warmup = scaled(100, s, 5);
        let trie =
            || TrieSupergraphMethod::build(&store, PathConfig::default(), MatchConfig::default());
        let method = trie();
        let base = measure(&queries, warmup, |_, q| {
            let t = Instant::now();
            let (answers, db_iso_tests) = method.query_super(q);
            let verify_time = t.elapsed();
            QueryOutcome {
                answers,
                db_iso_tests,
                verify_time,
                ..Default::default()
            }
        });
        let config = IgqConfig {
            cache_capacity: scaled(500, s, 20),
            window: warmup.max(5),
            ..Default::default()
        };
        let engine = IgqSuperEngine::new(trie(), config).expect("valid supergraph config");
        let igq = run_engine(&engine, &queries, warmup);
        assert_eq!(base.answers, igq.answers, "Theorem 2 violated");
        let records = [("method alone", &base), ("iGQ method", &igq)].map(|(path, agg)| {
            json!({
                "path": path, "avg_iso_tests": agg.avg_iso_tests(), "answers": agg.answers,
                "avg_time": fmt_duration(agg.avg_time()), "exact_hits": agg.exact_hits,
            })
        });
        report.records(records.into());
        let (iso, time) = (speedup(&base, &igq, false), speedup(&base, &igq, true));
        report.line(format!(
            "speedup: {} in iso tests, {} in time",
            fmt_speedup(iso),
            fmt_speedup(time)
        ));
        let (b, i) = (base.total_time.as_secs_f64(), igq.total_time.as_secs_f64());
        report.json = json!({
            "base_tests": base.iso_tests, "igq_tests": igq.iso_tests, "base_time_s": b, "igq_time_s": i,
            "base_answers": base.answers, "igq_answers": igq.answers,
        });
    }

    fn policy_ablation(&mut self, report: &mut Report) {
        let (s, seed) = (self.opts.scale, self.opts.seed);
        let store = Arc::new(DatasetKind::Aids.generate(scaled(4_000, s, 200), seed));
        // Never shortened by `with_queries`: below 150 queries the cache
        // would not evict and every policy would run alike.
        let count = scaled(2_000, s, 150);
        let (zipf18, zipf14) = (Distribution::Zipf(1.8), Distribution::Zipf(1.4));
        let queries = QueryGenerator::new(&store, zipf18, zipf14, seed ^ 0x9).take(count);
        // Small cache, aggressive churn: the policy choice has to matter.
        let capacity = (count / 25).max(8);
        let window = (capacity / 4).max(2);
        let ggsx = || MethodKind::Ggsx.build(&store, 1);
        let baseline = run_baseline(ggsx().as_ref(), &queries, 0).iso_tests;
        use ReplacementPolicy::*;
        let records = [Utility, Lru, Fifo, Lfu, Random].map(|policy| {
            let config = IgqConfig {
                cache_capacity: capacity,
                window,
                policy,
                ..Default::default()
            };
            let engine = IgqEngine::new(ggsx(), config).expect("valid config");
            let agg = run_engine(&engine, &queries, 0);
            json!({
                "policy": policy.name(), "iso_tests": agg.iso_tests, "baseline_tests": baseline,
                "vs_baseline": ratio(baseline as f64, agg.iso_tests as f64),
                "exact_hits": agg.exact_hits, "empty_shortcuts": agg.empty_shortcuts,
                "maintenances": engine.stats().maintenances,
            })
        });
        report.line(format!(
            "C={capacity} W={window}, {count} zipf(1.8)-zipf(1.4) queries"
        ));
        report.records(records.into());
    }

    fn edge_labels(&mut self, report: &mut Report) {
        let (s, seed) = (self.opts.scale, self.opts.seed);
        let count = scaled(40_000, s * 0.02, 200);
        let n_queries = self.stream_len(3_000, s * 0.02, 120);
        let warmup = (n_queries / 10).max(5);
        let config = IgqConfig {
            cache_capacity: (n_queries / 6).max(10),
            window: warmup,
            ..Default::default()
        };
        let twins = [
            ("plain", aids_like(count, seed)),
            ("bonds", aids_like_bonds(count, seed)),
        ];
        let records = twins.map(|(variant, store)| {
            // Queries are carved from the variant itself, so bond queries
            // carry bond labels.
            let (store, zipf) = (Arc::new(store), Distribution::Zipf(1.4));
            let queries = QueryGenerator::new(&store, zipf, zipf, seed ^ 0xE1).take(n_queries);
            let run = run_paired(&store, MethodKind::Ggsx, 1, &queries, config);
            let b = &run.baseline;
            json!({
                "variant": variant, "avg_candidates": b.avg_candidates(), "avg_answers": b.avg_answers(),
                "avg_false_positives": b.avg_false_positives(), "igq_iso_speedup": run.speedup(false),
                "baseline_answers": b.answers, "igq_answers": run.igq.answers,
            })
        });
        report.line(format!(
            "{count} graphs per twin, {n_queries} zipf-zipf queries, warm-up {warmup}"
        ));
        report.records(records.into());
    }
}

/// A tiny stand-in for `kind`'s dataset: `n` connected 10-edge fragments
/// of its graphs, one from each of its first `n` graphs or, for the dense
/// datasets, from `n` start vertices spread over its first graph
/// (generating more of those alone takes seconds unoptimised). Small
/// enough for every method, CT-Index included, to index in milliseconds
/// in a debug build; see [`Session::with_dataset`].
pub fn fragments(kind: DatasetKind, n: usize, seed: u64) -> GraphStore {
    use igq_graph::{GraphId, VertexId};
    let dense = matches!(kind, DatasetKind::Ppi | DatasetKind::Synthetic);
    let source = kind.generate(if dense { 1 } else { n }, seed);
    (0..n)
        .map(|i| {
            let g = source.get(GraphId::new(if dense { 0 } else { i as u32 }));
            let start = if dense { i * g.vertex_count() / n } else { 0 };
            igq_workload::bfs_extract(g, VertexId::new(start as u32), 10)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_floors() {
        assert_eq!(scaled(3000, 0.1, 40), 300);
        assert_eq!(scaled(100, 0.001, 5), 5);
    }

    #[test]
    fn setup_produces_consistent_sizes() {
        let mut session = Session::new(ExpOptions {
            scale: 0.01,
            ..Default::default()
        });
        let store = session.dataset(DatasetKind::Aids);
        assert_eq!(store.len(), 400);
        let (queries, config) = session.stream(&store, 3_000, &DEFAULT_CELL);
        assert_eq!(queries.len(), 40);
        assert!(config.window <= config.cache_capacity);
        assert_eq!((config.window, config.cache_capacity), (5, 10));
    }
}

/// A session over `kinds`' tiny stores with 12-query streams.
#[cfg(test)]
fn tiny_session(kinds: &[DatasetKind]) -> Session {
    let opts = ExpOptions {
        scale: 0.004,
        threads: 2,
        ..Default::default()
    };
    let session = Session::new(opts).with_queries(12);
    kinds.iter().fold(session, |s, &kind| {
        s.with_dataset(kind, fragments(kind, 12, 5))
    })
}

/// Asserts that `grid`'s first cell answers like its baseline with no
/// more iso tests, and returns that run.
#[cfg(test)]
fn first_cell_is_sound(grid: &Grid) -> PairedRun {
    let mut session = tiny_session(&[grid.dataset]);
    let store = session.dataset(grid.dataset);
    let threads = session.opts.threads;
    let row = grid.rows.cells(grid.base, threads).1[0].1;
    let cell = grid.cols.cells(row, threads).1[0].1;
    let (queries, config) = session.stream(&store, grid.queries, &cell);
    let run = run_paired(&store, cell.method, threads, &queries, config);
    assert_eq!(run.baseline.answers, run.igq.answers);
    assert!(run.igq.iso_tests <= run.baseline.iso_tests);
    run
}

/// Figs. 1-3: the methods-alone baseline profiles.
#[cfg(test)]
mod breakdown {
    mod tests {
        use crate::experiments::*;

        #[test]
        fn breakdown_runs() {
            let mut session = tiny_session(&[DatasetKind::Aids, DatasetKind::Pdbs]);
            let r = session.run(figure("fig01_time_breakdown").expect("listed"));
            assert!(r.lines.iter().any(|l| l.contains("GGSX")));
            let rows = r.json.as_array().expect("records").iter();
            let datasets: Vec<&str> = rows.filter_map(|v| v["dataset"].as_str()).collect();
            assert_eq!(datasets, [["AIDS"; 4], ["PDBS"; 4]].concat());
        }

        #[test]
        fn filtering_power_answers_are_method_independent() {
            let profile = tiny_session(&[DatasetKind::Aids]).profile(DatasetKind::Aids);
            let answers: Vec<u64> = profile.iter().map(|(_, a)| a.answers).collect();
            assert_eq!(answers.len(), 4);
            assert!(
                answers.windows(2).all(|w| w[0] == w[1]),
                "answers {answers:?}"
            );
            // Candidates always at least answers (no false negatives).
            for (name, agg) in profile.iter() {
                assert!(agg.candidates >= agg.answers, "{name}");
            }
        }
    }
}

/// Fig. 14: query-time speedup against (C, W).
#[cfg(test)]
mod cache_sweep {
    mod tests {
        use crate::experiments::*;

        #[test]
        fn cache_window_pairs_match_paper() {
            let pairs = Axis::Caches(&[(500, 100), (1_000, 200), (1_500, 300)]);
            assert_eq!(Grid::CACHE_SWEEP.rows, pairs);
            assert_eq!(Grid::CACHE_SWEEP.queries, 5_000);
        }

        #[test]
        fn single_cell_runs_soundly() {
            // One (C, W) cell on a tiny PDBS store; the full sweep runs
            // via `reproduce fig14_time_speedup_cache`.
            let run = first_cell_is_sound(&Grid::CACHE_SWEEP);
            assert_eq!(run.method, MethodKind::GrapesN.name(2));
        }
    }
}

/// Figs. 10/11/16/17: speedups per query-size group on the dense datasets.
#[cfg(test)]
mod groups {
    mod tests {
        use crate::experiments::*;

        #[test]
        fn cache_sizes_match_paper() {
            for grid in [Grid::PPI_GROUPS, Grid::SYNTH_GROUPS] {
                let caches = Axis::Caches(&[(100, 20), (200, 20), (300, 20)]);
                assert_eq!((grid.rows, grid.cols), (caches, Axis::Groups));
            }
        }

        #[test]
        fn single_dense_cell_runs_soundly() {
            // One cache size over a tiny PPI store; the full sweep runs
            // via `reproduce fig10_iso_speedup_ppi_groups`.
            let run = first_cell_is_sound(&Grid::PPI_GROUPS);
            assert!(!run.group_speedups(false).is_empty());
        }
    }
}

/// Figs. 7/8/12/13: every paper method under every workload shape.
#[cfg(test)]
mod speedups {
    mod tests {
        use crate::experiments::*;

        #[test]
        fn tiny_matrix_is_complete_and_sound() {
            let mut session = tiny_session(&[DatasetKind::Aids]);
            let matrix = session.grid(&Grid::AIDS_LINEUP);
            assert_eq!(matrix.len(), 4);
            for runs in matrix.iter() {
                assert_eq!(runs.len(), 4);
                for (cell, run) in runs {
                    let label = format!("{}/{}", shape_label(cell.shape), run.method);
                    assert!(run.speedup(false) >= 1.0, "{label} {}", run.speedup(false));
                    assert_eq!(run.baseline.answers, run.igq.answers, "{label}");
                }
            }
        }
    }
}

/// Figs. 9/15: speedup against Zipf skew α.
#[cfg(test)]
mod zipf_sweep {
    mod tests {
        use crate::experiments::*;

        #[test]
        fn sweep_shape() {
            let sweep = tiny_session(&[DatasetKind::Pdbs]).grid(&Grid::ZIPF_SWEEP);
            assert_eq!(sweep.len(), 3);
            assert!(sweep.iter().all(|runs| runs.len() == 3));
            let alphas: Vec<f64> = sweep.iter().map(|runs| runs[0].0.alpha).collect();
            assert_eq!(alphas, [1.1, 1.4, 2.0]);
        }
    }
}
