//! `spice-trace`: the command-line front end of `spice-obs`.
//!
//! ```text
//! spice-trace summary       <trace.jsonl>... [--format text|json]
//! spice-trace critical-path <trace.jsonl>... [--format text|json]
//! spice-trace stalls        <trace.jsonl>... [--format text|json]
//!                           [--k F] [--instant NAME] [--track NAME]
//!                           [--expected-gap F] [--min-events N] [--gate]
//! spice-trace diff          <a> <b> [--tolerance F] [--abs-epsilon F]
//!                           [--ignore SUBSTR]... [--format text|json] [--gate]
//! spice-trace flamegraph    <trace.jsonl>...
//! ```
//!
//! Inputs are telemetry JSONL exports (`Telemetry::jsonl`); `diff` also
//! accepts any single-document JSON file (benchmark reports). Output is
//! a pure function of the input bytes — byte-identical across repeated
//! runs — so goldens can pin it and CI can diff it. `--gate` flips the
//! exit code to 1 when stalls were detected / the diff is dirty, for use
//! as a CI tripwire.

use spice_obs::{diff, report, stall, trace::TraceModel};
use std::process::ExitCode;

const USAGE: &str = "usage: spice-trace {summary|critical-path|stalls|diff|flamegraph} <input>... [options]
  summary        span-duration quantiles, critical paths, metric highlights
  critical-path  heaviest root-to-leaf chain per track group
  stalls         steering stall windows (--k, --instant, --track, --expected-gap, --min-events, --gate)
  diff           compare two exports (--tolerance, --abs-epsilon, --ignore, --gate)
  flamegraph     collapsed stacks on stdout
  common options: --format {text|json}";

struct Cli {
    inputs: Vec<String>,
    format_json: bool,
    gate: bool,
    k: f64,
    instant: Option<String>,
    track: Option<String>,
    expected_gap: Option<f64>,
    min_events: Option<usize>,
    tolerance: f64,
    abs_epsilon: f64,
    ignore: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        inputs: Vec::new(),
        format_json: false,
        gate: false,
        k: 1.5,
        instant: None,
        track: None,
        expected_gap: None,
        min_events: None,
        tolerance: 0.1,
        abs_epsilon: 1e-9,
        ignore: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--format" => {
                cli.format_json = match value("--format")?.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format {other:?}")),
                }
            }
            "--gate" => cli.gate = true,
            "--k" => cli.k = parse_num(&value("--k")?, "--k")?,
            "--instant" => cli.instant = Some(value("--instant")?),
            "--track" => cli.track = Some(value("--track")?),
            "--expected-gap" => {
                cli.expected_gap = Some(parse_num(&value("--expected-gap")?, "--expected-gap")?)
            }
            "--min-events" => {
                cli.min_events = Some(
                    value("--min-events")?
                        .parse()
                        .map_err(|e| format!("--min-events: {e}"))?,
                )
            }
            "--tolerance" => cli.tolerance = parse_num(&value("--tolerance")?, "--tolerance")?,
            "--abs-epsilon" => {
                cli.abs_epsilon = parse_num(&value("--abs-epsilon")?, "--abs-epsilon")?
            }
            "--ignore" => cli.ignore.push(value("--ignore")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => cli.inputs.push(path.to_string()),
        }
    }
    if cli.inputs.is_empty() {
        return Err("no input files given".to_string());
    }
    Ok(cli)
}

fn parse_num(s: &str, flag: &str) -> Result<f64, String> {
    s.parse().map_err(|e| format!("{flag}: {e}"))
}

fn load_models(paths: &[String]) -> Result<Vec<(String, TraceModel)>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
            let model = TraceModel::from_jsonl(&text).map_err(|e| format!("{p}: {e}"))?;
            Ok((p.clone(), model))
        })
        .collect()
}

fn run(cmd: &str, cli: &Cli) -> Result<bool, String> {
    let mut gate_tripped = false;
    match cmd {
        "summary" => {
            let models = load_models(&cli.inputs)?;
            let r = report::build(&models)?;
            if cli.format_json {
                println!("{}", r.to_json().render());
            } else {
                print!("{}", r.render_text());
            }
        }
        "critical-path" => {
            let models = load_models(&cli.inputs)?;
            let r = report::build(&models)?;
            if cli.format_json {
                // The critical_paths member of the summary JSON, alone.
                let full = r.to_json();
                let paths = full
                    .get("critical_paths")
                    .cloned()
                    .unwrap_or(spice_obs::Json::Obj(Vec::new()));
                println!("{}", paths.render());
            } else {
                for (track, steps) in &r.critical_paths {
                    print!("{track}:");
                    for s in steps {
                        print!(
                            " -> {} [{} ticks x{} {:.0}%]",
                            s.name,
                            s.total_ticks,
                            s.count,
                            s.share * 100.0
                        );
                    }
                    println!();
                }
            }
        }
        "stalls" => {
            let models = load_models(&cli.inputs)?;
            let mut cfg = stall::StallConfig {
                k: cli.k,
                track: cli.track.clone(),
                expected_gap: cli.expected_gap,
                ..stall::StallConfig::default()
            };
            if let Some(name) = &cli.instant {
                cfg.name = name.clone();
            }
            if let Some(n) = cli.min_events {
                cfg.min_events = n;
            }
            // Detection runs per input and merges track lists, so shard
            // cadences are learned per shard, not across them.
            let mut merged = stall::StallReport {
                k: cfg.k,
                name: cfg.name.clone(),
                ..stall::StallReport::default()
            };
            for (_, model) in &models {
                let r = stall::detect(model, &cfg);
                merged.tracks.extend(r.tracks);
                for m in r.steering_metrics {
                    if !merged.steering_metrics.contains(&m) {
                        merged.steering_metrics.push(m);
                    }
                }
            }
            if cli.format_json {
                println!("{}", merged.to_json().render());
            } else {
                print!("{}", merged.render_text());
            }
            gate_tripped = merged.total_windows() > 0;
        }
        "diff" => {
            if cli.inputs.len() != 2 {
                return Err("diff needs exactly two inputs".to_string());
            }
            let read = |p: &String| {
                std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))
            };
            let a = diff::flatten_input(&read(&cli.inputs[0])?)
                .map_err(|e| format!("{}: {e}", cli.inputs[0]))?;
            let b = diff::flatten_input(&read(&cli.inputs[1])?)
                .map_err(|e| format!("{}: {e}", cli.inputs[1]))?;
            let cfg = diff::DiffConfig {
                tolerance: cli.tolerance,
                abs_epsilon: cli.abs_epsilon,
                ignore: cli.ignore.clone(),
            };
            let r = diff::diff(&a, &b, &cfg);
            if cli.format_json {
                println!("{}", r.to_json(&cfg).render());
            } else {
                print!("{}", r.render_text(&cfg));
            }
            gate_tripped = !r.is_clean();
        }
        "flamegraph" => {
            let models = load_models(&cli.inputs)?;
            let mut merged = TraceModel::default();
            for (_, m) in models {
                merged.tracks.extend(m.tracks);
            }
            print!("{}", spice_obs::flame::collapsed(&merged)?);
        }
        other => return Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    }
    Ok(gate_tripped)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let cli = match parse_args(&args[1..]) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("spice-trace: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(cmd, &cli) {
        Ok(tripped) => {
            if tripped && cli.gate {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("spice-trace: {e}");
            ExitCode::from(2)
        }
    }
}
