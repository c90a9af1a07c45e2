#!/usr/bin/env python3
"""Repository benchmark: build osm-perfbench from source and run one workload.

Run one workload (prints a human table on stderr and, as the last line of
stdout, the one-line JSON result):

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0

Every run also saves its full result (and, when traced, its spans) under
.bench_build/results/, or under --out DIR.  Compare two sets of saved runs,
for example the parent commit's and a change's:

    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR

See perfbench/README.md for the metrics, workloads and the compare rule.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXE = BUILD / "osm-perfbench"
WORKLOADS = ("pipeline", "functional", "campaign")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "osm-perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(1)


def commit_facts():
    """The git commit when the tree is a checkout, plus a digest of the
    sources the benchmark builds, which identifies the code either way."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def run(args):
    spec = load_spec()
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    build()
    out_dir = Path(args.out) if args.out else BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    report = out_dir / f"{stem}.json"
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--report", str(report)]
    if args.trace:
        cmd += ["--spans", str(out_dir / f"{stem}.spans.json")]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=170).returncode
    except subprocess.TimeoutExpired:
        log("run.py: osm-perfbench timed out")
        sys.exit(1)
    if rc != 0:
        log(f"run.py: osm-perfbench exited with {rc}")
        sys.exit(1)

    with open(report) as f:
        result = json.load(f)
    result["host"]["commit"], result["host"]["source_digest"] = commit_facts()
    with open(report, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log("run.py: metrics missing from the report:", ", ".join(missing))
        sys.exit(1)
    if not result["host"]["release_build"]:
        log("run.py: WARNING: not a Release build")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n]["value"], "unit": result["metrics"][n]["unit"]}
                    for n in names},
    }
    print(json.dumps(line))


# ---- compare ---------------------------------------------------------------


def load_results(directory):
    """(workload, trace) -> metric -> [(seed, value), ...] for one result set."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        with open(path) as f:
            r = json.load(f)
        group = out.setdefault((r["workload"], r["trace"]), {})
        for name, m in r["metrics"].items():
            group.setdefault(name, []).append((r["seed"], m["value"]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """The rule of the choosing-metrics guide, section 8: a gain needs nine
    tenths of the pairs and a median shift beyond the parent's own spread;
    "no worse" needs the median within the bound and a spread that can
    resolve it."""
    sign = 1.0 if better == "higher" else -1.0
    pv = dict(parent)
    pairs = [(pv[s], v) for s, v in change if s in pv]
    if not pairs:  # no shared seeds: pair runs in order
        pairs = list(zip([v for _, v in parent], [v for _, v in change]))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_vals, c_vals = [v for _, v in parent], [v for _, v in change]
    p1, pm, p3 = quartiles(p_vals)
    _, cm, _ = quartiles(c_vals)
    share = wins / len(pairs) if pairs else 0.0
    if p_vals == c_vals or (min(p_vals) == max(p_vals) == min(c_vals) == max(c_vals)):
        return share, "unchanged (exact)"
    if share >= 0.9 and sign * (cm - pm) > (p3 - p1):
        return share, "improved"
    if bound is None:
        return share, "unresolved"
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if spread > bound and not all_better:
        return share, "unresolved"
    return share, "no worse (within bound)" if worse_by <= bound else "worse"


def compare(args):
    spec = load_spec()
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_results(args.parent), load_results(args.change)
    print(f"{'workload':<10} {'metric':<40} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>5}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        for name in sorted(set(parent[key]) & set(change[key])):
            if name not in meta:
                continue
            p, c = parent[key][name], change[key][name]
            share, v = verdict(p, c, meta[name]["better"], meta[name].get("bound"))
            pq, cq = quartiles([x for _, x in p]), quartiles([x for _, x in c])
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            label = workload + ("/traced" if trace else "")
            print(f"{label:<10} {name:<40} {fmt(pq):>34} {fmt(cq):>34} {share:5.0%}  {v}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("parent", help="directory of the parent commit's saved results")
        ap.add_argument("change", help="directory of the change's saved results")
        compare(ap.parse_args(sys.argv[2:]))
        return
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="save the full result here (default .bench_build/results)")
    run(ap.parse_args())


if __name__ == "__main__":
    main()
