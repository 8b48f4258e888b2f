//! Declarative experiment runner: `workload × algorithm × metrics → table
//! + JSON-lines report`.
//!
//! Every `exp_e*` binary builds an [`ExperimentSpec`] and hands it to
//! [`run_cli`]. A spec is a list of [`Section`]s; each section is a table
//! whose rows are either
//!
//! * [`GameRow`]s — an algorithm picked from the
//!   [`registry`] by string key, a named
//!   [`WorkloadSpec`], and a [`RefereeSpec`]: the runner drives the stream
//!   through the erased engine with batched ingestion and a **real**
//!   referee, then renders the requested [`Metric`]s — so every "ok"
//!   column is a genuine game verdict, not an ad-hoc inline check; or
//! * [`Row::custom`] closures for domain-specific instances (attacks,
//!   communication games, verifier sweeps) that still declare their
//!   columns here and receive the shared [`RunCtx`] so `--quick` scaling
//!   applies uniformly.
//!
//! CLI flags (parsed by [`RunnerConfig::from_args`]):
//!
//! * `--quick` — smoke mode: workloads are capped at
//!   [`RunnerConfig::QUICK_CAP`] updates and custom rows see
//!   `ctx.quick == true` (CI runs all experiment binaries this way);
//! * `--json <path|->` — additionally emit one JSON object per row to a
//!   file (or stdout with `-`);
//! * `--threads N` — worker threads for row execution (default: one per
//!   core). Rows are independent jobs on the engine's
//!   [`pool`]; tables still print in declaration order and the
//!   JSON report is byte-identical across thread counts.
//!
//! Game rows stream their workload chunk by chunk ([`WorkloadSpec::stream`]
//! → [`run_source_erased`]) in chunks of [`GameRow::batch`], so memory
//! stays O(chunk) whatever the workload's length.
//!
//! Any other argument exits with status 2 and prints the known-flag list,
//! as the `tournament` and `wbd` binaries do. A JSON report that cannot be
//! written exits with status 1.

use crate::erased::run_source_erased;
use crate::pool::{self, Job};
use crate::referee::RefereeSpec;
use crate::registry::{self, Params};
use crate::report::{header, row, GameReport};
use crate::workload::WorkloadSpec;
use std::io::Write as _;

/// Declarative description of one experiment binary.
pub struct ExperimentSpec {
    /// Stable id (`"e1"`, …) used in JSON report lines.
    pub id: &'static str,
    /// Headline printed before the tables.
    pub title: String,
    /// Closing remarks printed after the tables.
    pub notes: Vec<String>,
    /// The tables.
    pub sections: Vec<Section>,
}

impl ExperimentSpec {
    /// Empty spec with the given id and headline.
    pub fn new(id: &'static str, title: impl Into<String>) -> Self {
        ExperimentSpec {
            id,
            title: title.into(),
            notes: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Append a section.
    pub fn section(mut self, section: Section) -> Self {
        self.sections.push(section);
        self
    }

    /// Append a closing note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

/// One table of an experiment.
pub struct Section {
    /// Heading printed above the table.
    pub heading: String,
    /// Column titles; the first column is the row label.
    pub columns: Vec<String>,
    /// Cell width.
    pub width: usize,
    /// The rows.
    pub rows: Vec<Row>,
}

impl Section {
    /// Empty section with a heading and column titles.
    pub fn new(heading: impl Into<String>, columns: &[&str], width: usize) -> Self {
        Section {
            heading: heading.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            width,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(mut self, r: Row) -> Self {
        self.rows.push(r);
        self
    }

    /// Append every row from an iterator.
    pub fn rows(mut self, rs: impl IntoIterator<Item = Row>) -> Self {
        self.rows.extend(rs);
        self
    }
}

/// Metrics a [`GameRow`] can render into cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Rounds played.
    Rounds,
    /// `space_bits()` after the final round.
    SpaceBits,
    /// Peak `space_bits()` across the game.
    PeakSpaceBits,
    /// `true` iff the referee accepted every checked answer.
    Ok,
    /// Round of the first violation, or `-`.
    FailRound,
    /// The final query answer, compactly rendered.
    Answer,
    /// Number of referee checks performed.
    Checks,
}

/// A registry algorithm driven over a named workload under a real referee.
pub struct GameRow {
    /// First-column label.
    pub label: String,
    /// Registry key of the algorithm.
    pub alg: &'static str,
    /// Construction parameters.
    pub params: Params,
    /// The stream.
    pub workload: WorkloadSpec,
    /// The correctness checker.
    pub referee: RefereeSpec,
    /// Public seed of the algorithm's random tape.
    pub seed: u64,
    /// Ingestion chunk size (checks happen at chunk boundaries).
    pub batch: usize,
    /// Cells to render after the label.
    pub metrics: Vec<Metric>,
}

impl GameRow {
    /// Row with the default batch size (256) and `[SpaceBits, Ok]` metrics.
    pub fn new(
        label: impl Into<String>,
        alg: &'static str,
        params: Params,
        workload: WorkloadSpec,
        referee: RefereeSpec,
    ) -> Self {
        GameRow {
            label: label.into(),
            alg,
            params,
            workload,
            referee,
            seed: 0,
            batch: 256,
            metrics: vec![Metric::SpaceBits, Metric::Ok],
        }
    }

    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the ingestion chunk size.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Set the rendered metrics.
    pub fn metrics(mut self, metrics: &[Metric]) -> Self {
        self.metrics = metrics.to_vec();
        self
    }
}

/// Shared context handed to custom rows.
#[derive(Debug, Clone, Copy)]
pub struct RunCtx {
    /// `true` under `--quick`: scale sweeps down to smoke size.
    pub quick: bool,
}

impl RunCtx {
    /// `m`, capped at `cap` in quick mode.
    pub fn cap(&self, m: u64, cap: u64) -> u64 {
        if self.quick {
            m.min(cap)
        } else {
            m
        }
    }

    /// `trials`, reduced to `quick_trials` in quick mode.
    pub fn trials(&self, trials: u64, quick_trials: u64) -> u64 {
        if self.quick {
            trials.min(quick_trials)
        } else {
            trials
        }
    }
}

type CustomFn = Box<dyn FnOnce(&RunCtx) -> Vec<String> + Send>;

/// A table row: registry-driven game or domain-specific computation.
pub enum Row {
    /// See [`GameRow`].
    Game(Box<GameRow>),
    /// Label plus a closure producing the remaining cells.
    Custom {
        /// First-column label.
        label: String,
        /// Produces the cells after the label.
        cells: CustomFn,
    },
}

impl Row {
    /// Shorthand for a [`Row::Game`].
    pub fn game(g: GameRow) -> Self {
        Row::Game(Box::new(g))
    }

    /// Shorthand for a [`Row::Custom`]. The closure must be `Send`: rows
    /// are executed on the engine's worker pool.
    pub fn custom(
        label: impl Into<String>,
        cells: impl FnOnce(&RunCtx) -> Vec<String> + Send + 'static,
    ) -> Self {
        Row::Custom {
            label: label.into(),
            cells: Box::new(cells),
        }
    }
}

/// Runner configuration, usually parsed from the command line.
#[derive(Debug, Clone, Default)]
pub struct RunnerConfig {
    /// Smoke mode: cap workloads and sweeps.
    pub quick: bool,
    /// Emit JSON lines to this path (`-` for stdout).
    pub json: Option<String>,
    /// Worker threads for row execution (`0` = one per available core).
    pub threads: usize,
}

impl RunnerConfig {
    /// Updates per workload in `--quick` mode.
    pub const QUICK_CAP: u64 = 1 << 11;

    /// Parse `--quick`, `--json <path|->` and `--threads N` from
    /// `std::env::args`.
    pub fn from_args() -> Self {
        let mut cfg = RunnerConfig::default();
        let mut args = std::env::args().skip(1);
        // Strict numeric values: a missing/non-numeric value would
        // otherwise swallow the next flag (e.g. `--threads --quick`) and
        // silently run the full-scale workload. Underscore separators are
        // accepted.
        fn numeric<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
            match value.map(|v| v.replace('_', "").parse()) {
                Some(Ok(n)) => n,
                _ => {
                    eprintln!("{flag} needs a number");
                    std::process::exit(2);
                }
            }
        }
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => cfg.quick = true,
                "--json" => {
                    // Strict: a missing value (or a following flag) must not
                    // be swallowed as the path — `--json --quick` would
                    // silently run full-scale. `-` (stdout) stays valid.
                    cfg.json = match args.next() {
                        Some(v) if !v.starts_with("--") => Some(v),
                        _ => {
                            eprintln!("--json needs a path (or '-' for stdout)");
                            std::process::exit(2);
                        }
                    }
                }
                "--threads" => cfg.threads = numeric(args.next(), "--threads"),
                other => {
                    // Refused, not skipped: a typo such as `--quikc` would
                    // otherwise run the full-scale workload.
                    eprintln!("unknown flag '{other}' (known: --quick, --json, --threads)");
                    std::process::exit(2);
                }
            }
        }
        cfg
    }
}

/// Parse the CLI, run the spec, print tables, and write the JSON report if
/// requested, exiting with status 1 if it cannot be written. The entry
/// point every experiment binary calls from `main`.
pub fn run_cli(spec: ExperimentSpec) {
    let cfg = RunnerConfig::from_args();
    let lines = run(spec, &cfg);
    if let Some(path) = &cfg.json {
        write_json_report(path, &lines);
    }
}

/// Write a JSON-lines report for a `--json <path|->` flag: one line per
/// entry, to stdout for `-`, else to the file at `path`. A file that
/// cannot be written is reported on stderr and exits with status 1.
pub fn write_json_report(path: &str, lines: &[String]) {
    if path == "-" {
        let mut out = std::io::stdout();
        for l in lines {
            let _ = writeln!(out, "{l}");
        }
    } else if let Err(e) = std::fs::write(path, lines.join("\n") + "\n") {
        eprintln!("could not write JSON report to {path}: {e}");
        std::process::exit(1);
    }
}

/// Run the spec with an explicit configuration, printing tables and
/// returning the JSON report lines (one object per row).
///
/// Rows are independent: each one becomes a job on the engine's
/// [`pool`] (sized by [`RunnerConfig::threads`]). Finished rows
/// stream to stdout as soon as every earlier row is done — long runs show
/// progress — and they rejoin their sections in declaration order, so the
/// printed tables and the JSON report are byte-identical no matter how
/// many workers ran.
pub fn run(spec: ExperimentSpec, cfg: &RunnerConfig) -> Vec<String> {
    let ExperimentSpec {
        id,
        title,
        notes,
        sections,
    } = spec;
    let ctx = RunCtx { quick: cfg.quick };
    println!(
        "{}: {}{}",
        id.to_uppercase(),
        title,
        if cfg.quick { "  [--quick]" } else { "" }
    );

    struct RowOut {
        label: String,
        cells: Vec<String>,
        extra: String,
    }
    // (heading, columns, width) per section, plus each row's section index.
    let mut shapes: Vec<(String, Vec<String>, usize)> = Vec::new();
    let mut row_section: Vec<usize> = Vec::new();
    let mut jobs: Vec<Job<RowOut>> = Vec::new();
    for section in sections {
        shapes.push((section.heading, section.columns, section.width));
        for r in section.rows {
            row_section.push(shapes.len() - 1);
            jobs.push(match r {
                Row::Game(g) => Box::new(move || {
                    let (cells, extra) = run_game_row(&g, cfg);
                    RowOut {
                        label: g.label,
                        cells,
                        extra,
                    }
                }),
                Row::Custom { label, cells } => Box::new(move || RowOut {
                    label,
                    cells: cells(&ctx),
                    extra: String::new(),
                }),
            });
        }
    }

    fn print_headers(shapes: &[(String, Vec<String>, usize)], through: usize, printed: &mut usize) {
        while *printed <= through {
            let (heading, columns, width) = &shapes[*printed];
            println!("\n{heading}\n");
            let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
            header(&cols, *width);
            *printed += 1;
        }
    }

    let mut lines = Vec::new();
    let mut headers_printed = 0usize;
    pool::run_ordered_with(
        jobs,
        pool::effective_threads(cfg.threads),
        |index, out: &RowOut| {
            let section = row_section[index];
            print_headers(&shapes, section, &mut headers_printed);
            let (heading, columns, width) = &shapes[section];
            let mut all = vec![out.label.clone()];
            all.extend(out.cells.iter().cloned());
            println!("{}", row(&all, *width));
            lines.push(json_line(
                id, heading, columns, &out.label, &out.cells, &out.extra,
            ));
        },
    );
    // Sections with no rows still print their header, in order.
    if !shapes.is_empty() {
        print_headers(&shapes, shapes.len() - 1, &mut headers_printed);
    }
    for note in &notes {
        println!("\n{note}");
    }
    lines
}

/// Drive one [`GameRow`] through the erased engine — the workload is
/// pulled chunk by chunk from [`WorkloadSpec::stream`], never materialized
/// — and return the rendered metric cells plus extra JSON fields.
fn run_game_row(g: &GameRow, cfg: &RunnerConfig) -> (Vec<String>, String) {
    let workload = if cfg.quick {
        g.workload.capped(RunnerConfig::QUICK_CAP)
    } else {
        g.workload.clone()
    };
    let mut referee = g.referee.build();
    let report_or_err = registry::get(g.alg, &g.params).and_then(|mut alg| {
        run_source_erased(
            alg.as_mut(),
            &mut workload.stream(),
            referee.as_mut(),
            g.batch,
            g.seed,
        )
        .map(|rep| (rep, alg.query_dyn()))
    });
    match report_or_err {
        Ok((report, answer)) => {
            let cells = g
                .metrics
                .iter()
                .map(|m| metric_cell(*m, &report, &answer.cell()))
                .collect();
            // Structured fields go under one "game" key so they can never
            // collide with column names like "ok" or "rounds".
            let extra = format!(
                r#","game":{{"alg":"{}","workload":"{}","referee":"{}","rounds":{},"ok":{},"space_bits":{},"peak_space_bits":{}}}"#,
                g.alg,
                workload.label(),
                g.referee.label(),
                report.result.rounds,
                report.survived(),
                report.result.final_space_bits,
                report.result.peak_space_bits,
            );
            (cells, extra)
        }
        Err(e) => {
            let cells = g.metrics.iter().map(|_| format!("ERR: {e}")).collect();
            (
                cells,
                format!(r#","game":{{"alg":"{}","error":true}}"#, g.alg),
            )
        }
    }
}

fn metric_cell(metric: Metric, report: &GameReport, answer_cell: &str) -> String {
    match metric {
        Metric::Rounds => report.result.rounds.to_string(),
        Metric::SpaceBits => report.result.final_space_bits.to_string(),
        Metric::PeakSpaceBits => report.result.peak_space_bits.to_string(),
        Metric::Ok => report.survived().to_string(),
        Metric::FailRound => report
            .result
            .failure
            .as_ref()
            .map_or("-".to_string(), |f| f.round.to_string()),
        Metric::Answer => answer_cell.to_string(),
        Metric::Checks => report.checks.to_string(),
    }
}

/// Minimal JSON escaping for the ASCII-ish strings experiment tables use
/// (shared with the tournament report writer).
pub(crate) fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn json_line(
    id: &str,
    section: &str,
    columns: &[String],
    label: &str,
    cells: &[String],
    extra: &str,
) -> String {
    let mut fields = vec![
        format!(r#""exp":"{}""#, json_escape(id)),
        format!(r#""section":"{}""#, json_escape(section)),
        format!(r#""label":"{}""#, json_escape(label)),
    ];
    for (col, cell) in columns.iter().skip(1).zip(cells) {
        fields.push(format!(r#""{}":"{}""#, json_escape(col), json_escape(cell)));
    }
    format!("{{{}{extra}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> ExperimentSpec {
        ExperimentSpec::new("demo", "runner smoke test").section(
            Section::new("games", &["m", "alg", "space bits", "ok"], 12)
                .row(Row::game(
                    GameRow::new(
                        "2^12",
                        "misra_gries",
                        Params::default().with_n(1 << 10),
                        WorkloadSpec::Cycle {
                            items: 8,
                            m: 1 << 12,
                        },
                        RefereeSpec::HeavyHitters {
                            eps: 0.125,
                            tol: 0.125,
                            phi: None,
                            grace: 0,
                        },
                    )
                    .metrics(&[Metric::Answer, Metric::SpaceBits, Metric::Ok]),
                ))
                .row(Row::custom("custom", |ctx| {
                    vec![
                        ctx.cap(1 << 20, 1 << 10).to_string(),
                        "-".into(),
                        "true".into(),
                    ]
                })),
        )
    }

    #[test]
    fn runner_produces_json_lines() {
        let lines = run(demo_spec(), &RunnerConfig::default());
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""exp":"demo""#));
        assert!(lines[0].contains(r#""ok":true"#), "line: {}", lines[0]);
        assert!(lines[0].contains(r#""alg":"misra_gries""#));
        assert!(lines[1].contains(r#""label":"custom""#));
    }

    #[test]
    fn quick_mode_caps_workloads_and_custom_rows() {
        let cfg = RunnerConfig {
            quick: true,
            ..RunnerConfig::default()
        };
        let lines = run(demo_spec(), &cfg);
        // The game row reports rounds == QUICK_CAP, not 2^12.
        assert!(
            lines[0].contains(&format!(r#""rounds":{}"#, RunnerConfig::QUICK_CAP)),
            "line: {}",
            lines[0]
        );
        // The custom row saw quick mode through RunCtx.
        assert!(lines[1].contains(r#""alg":"1024""#) || lines[1].contains("1024"));
    }

    #[test]
    fn bad_registry_key_reports_error_cells() {
        let spec = ExperimentSpec::new("bad", "bad key").section(
            Section::new("s", &["label", "ok"], 10).row(Row::game(GameRow::new(
                "x",
                "nope",
                Params::default(),
                WorkloadSpec::Cycle { items: 2, m: 8 },
                RefereeSpec::Accept,
            ))),
        );
        let lines = run(spec, &RunnerConfig::default());
        assert!(lines[0].contains(r#""error":true"#));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb"), "a\\nb");
    }
}
