//! The benchmark command.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! e2e --smoke [--workload <name>] [--seed <n>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! says where and how it was measured. `--out` appends both, merged into
//! one object, to a file `report` can read. A traced run also writes its
//! spans to `benchmark/results/trace-<workload>.json`.

use skyline_benchmark::env::Environment;
use skyline_benchmark::json::escape;
use skyline_benchmark::metrics;
use skyline_benchmark::run::{run, RunConfig};
use skyline_benchmark::workload::NAMES;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n       e2e --smoke [--workload <name>] [--seed <n>]";

/// The seed the sizes in the README were measured with.
const DEFAULT_SEED: u64 = 2003;

/// Where a traced run leaves its spans: the package's `results/`
/// directory, whether the command runs from the repository root (as
/// `BENCHMARK.json` has it) or from inside `benchmark/`.
fn results_dir() -> &'static Path {
    if Path::new("benchmark").is_dir() {
        Path::new("benchmark/results")
    } else {
        Path::new("results")
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !args.smoke && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// Run once and print; `Ok(correct)`.
fn run_and_print(cfg: &RunConfig, env: &Environment, out: Option<&Path>) -> Result<bool, String> {
    let result = run(cfg)?;
    let context = format!(
        "\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"scale\": {}, \"clients\": {}, \"env\": {}",
        escape(&cfg.workload),
        cfg.seed,
        u8::from(cfg.trace),
        cfg.seconds,
        cfg.scale,
        result.clients,
        env.to_json()
    );
    let verdict = format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
        result.correct,
        result.attempted,
        result.failed,
        metrics::to_json(&result.metrics)
    );
    if let Some(spans) = &result.spans_json {
        let path = results_dir().join(format!("trace-{}.json", cfg.workload));
        let doc = format!("{{{context}, \"spans\": {spans}}}\n");
        std::fs::create_dir_all(results_dir())
            .and_then(|()| std::fs::write(&path, doc))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = out {
        append_line(path, &format!("{{{context}, {verdict}}}"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{{{context}}}");
    println!("{{{verdict}}}");
    Ok(result.correct)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("e2e: refusing to report from a debug build; run with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = Environment::probe();
    // a smoke run covers both modes of every workload in a few seconds:
    // tables and the external threshold a tenth of the size, half a
    // second per run
    let runs: Vec<RunConfig> = if args.smoke {
        let names: Vec<String> = match &args.workload {
            Some(name) => vec![name.clone()],
            None => NAMES.iter().map(ToString::to_string).collect(),
        };
        names
            .into_iter()
            .flat_map(|workload| {
                [false, true].map(|trace| RunConfig {
                    workload: workload.clone(),
                    seed: args.seed,
                    seconds: 0.5,
                    trace,
                    scale: 10,
                })
            })
            .collect()
    } else {
        vec![RunConfig {
            workload: args.workload.clone().unwrap_or_default(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            scale: 1,
        }]
    };
    let mut all_correct = true;
    for cfg in &runs {
        match run_and_print(cfg, &env, args.out.as_deref()) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("e2e: {}: {e}", cfg.workload);
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
