#!/usr/bin/env python3
"""Builds and runs the compile-path benchmark, or compares two result sets.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

The benchmark is built from source first (`cargo build --release --offline`
into `$CARGO_TARGET_DIR`, default `perfbench/target`). Its per-program rows
and the final JSON result line go to stdout; build output goes to stderr.
`--save FILE` also appends the result, tagged with workload, seed and
trace, to a JSON-lines file.

Compare two result sets made with `--save`:

    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

prints, per workload and end-to-end metric, each side's median and
quartiles and the ratio NEW/BASE, and flags a metric `unresolved` when
either side's quartile spread, as a share of its median, exceeds the
metric's bound in BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    target_dir = Path(env.setdefault("CARGO_TARGET_DIR", str(HERE / "target"))).resolve()
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail("build failed")
    return target_dir / "release" / "perfbench"


def run(argv):
    save = None
    if "--save" in argv:
        i = argv.index("--save")
        if i + 1 >= len(argv):
            fail("--save needs a file")
        save = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    binary = build()
    cmd = [str(binary), *argv, "--results-dir", str(HERE / "results")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result line")
    print("\n".join(lines))
    if save:
        tags = dict(zip(argv[0::2], argv[1::2]))
        record = {
            "workload": tags.get("--workload"),
            "seed": tags.get("--seed"),
            "trace": tags.get("--trace", "0"),
            "result": result,
        }
        with open(save, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")


def load(path):
    """{(workload, metric): [values]} of the untraced runs in a result set."""
    series = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace", "0") != "0":
                continue
            for name, m in rec["result"]["metrics"].items():
                series.setdefault((rec["workload"], name), []).append(m["value"])
    return series


def spread(values):
    """Quartiles, median, and the quartile spread as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return values[0], med, values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, ((q3 - q1) / med if med else 0.0)


def compare(base_path, new_path):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    base, new = load(base_path), load(new_path)
    print(f"{'workload':<12} {'metric':<20} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'ratio':>8}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        bq1, bmed, bq3, bsp = spread(base[key])
        nq1, nmed, nq3, nsp = spread(new[key])
        ratio = nmed / bmed if bmed else float("nan")
        bound, better = bounds.get(metric, (0.0, "lower"))
        if max(bsp, nsp) > bound:
            verdict = "unresolved"
        else:
            worse = ratio - 1 if better == "lower" else 1 - ratio
            verdict = "worse" if worse > bound else "within bound"
        print(f"{workload:<12} {metric:<20} "
              f"{bq1:>10.4g} {bmed:>10.4g} {bq3:>10.4g} "
              f"{nq1:>10.4g} {nmed:>10.4g} {nq3:>10.4g} {ratio:>8.4f}  {verdict}")


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare BASE.jsonl NEW.jsonl")
        compare(argv[1], argv[2])
    else:
        run(argv)


if __name__ == "__main__":
    main()
