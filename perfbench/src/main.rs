//! `perfbench --workload <table1|scale|serve-sweep> --seed <n> --seconds <s>
//! --trace <0|1> [--results-dir <dir>]`
//!
//! Runs one workload and prints its per-program rows, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). With
//! `--results-dir`, the traced run's spans go to
//! `trace-<workload>-<seed>.jsonl` there, and `fixed-<workload>.json` keeps
//! each program's cache key and gate counts so a later run that compiles
//! differently fails its determinism guard.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::{compile_loop, inputs, serve_sweep, Fixed, Outcome};
use ph_engine::json::Json;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    results_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let mut take = |k: &str| flags.remove(k);
    let args = Args {
        workload: take("workload").ok_or("--workload is required")?,
        seed: take("seed")
            .unwrap_or_else(|| "1".into())
            .parse()
            .map_err(|_| "--seed must be a whole number")?,
        seconds: take("seconds")
            .unwrap_or_else(|| "10".into())
            .parse()
            .map_err(|_| "--seconds must be a number")?,
        trace: match take("trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        results_dir: take("results-dir").map(PathBuf::from),
    };
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag `--{k}`"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    let out = match args.workload.as_str() {
        "table1" => compile_loop::run(|| inputs::table1(seed), seconds, traced),
        "scale" => compile_loop::run(|| inputs::scale(seed), seconds, traced),
        "serve-sweep" => serve_sweep::run(seed, seconds, traced),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (table1|scale|serve-sweep)");
            return ExitCode::from(2);
        }
    };

    let mut correct = out.failed == 0;
    if let Some(dir) = &args.results_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            return ExitCode::from(1);
        }
        if let Some(trace) = &out.trace_jsonl {
            let path = dir.join(format!("trace-{}-{seed}.jsonl", args.workload));
            if let Err(e) = std::fs::write(&path, trace) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
        let path = dir.join(format!("fixed-{}.json", args.workload));
        if let Err(e) = guard_across_runs(&path, &out.fixed) {
            eprintln!("perfbench: determinism guard: {e}");
            correct = false;
        }
    }
    print_rows(&out);
    for f in &out.failures {
        eprintln!("perfbench: failed: {f}");
    }
    let metrics = Json::Obj(
        out.metrics
            .iter()
            .map(|m| {
                let v = Json::obj([("value", Json::F64(m.value)), ("unit", Json::str(m.unit))]);
                (m.name.to_string(), v)
            })
            .collect(),
    );
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_compact());
    ExitCode::SUCCESS
}

fn print_rows(out: &Outcome) {
    if out.rows.is_empty() {
        return;
    }
    println!(
        "{:<24} {:>12} {:>10} {:>10} {:>8}",
        "program", "tmean_ms", "cnot", "single", "depth"
    );
    for row in &out.rows {
        println!("{row}");
    }
}

/// Compares this run's per-program outputs with the ones recorded at
/// `path` by earlier runs, then records the union.
fn guard_across_runs(path: &Path, fixed: &[Fixed]) -> Result<(), String> {
    let mut known: BTreeMap<String, Json> = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text).map_err(|e| e.to_string())? {
            Json::Obj(fields) => fields.into_iter().collect(),
            _ => return Err(format!("{} is not an object", path.display())),
        },
        Err(_) => BTreeMap::new(),
    };
    let mut mismatches = Vec::new();
    for f in fixed {
        let now = Json::obj([
            ("key", Json::str(format!("{:016x}", f.key))),
            ("cnot", Json::U64(f.cnot as u64)),
            ("single", Json::U64(f.single as u64)),
            ("depth", Json::U64(f.depth as u64)),
            ("digest", Json::str(format!("{:016x}", f.digest))),
        ]);
        match known.get(&f.label) {
            Some(before) if *before != now => mismatches.push(f.label.clone()),
            Some(_) => {}
            None => {
                known.insert(f.label.clone(), now);
            }
        }
    }
    let text = Json::Obj(known.into_iter().collect()).to_pretty();
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "outputs changed since earlier runs: {}",
            mismatches.join(", ")
        ))
    }
}
