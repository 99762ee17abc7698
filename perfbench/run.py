#!/usr/bin/env python3
"""Build and run the repository's benchmark, or compare two result files.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py compare <base.jsonl> <new.jsonl>

A run builds `perfbench/` (a package of its own that uses the library
crates by path) with `cargo build --release --offline`, runs one workload,
appends the result with host metadata to `perfbench/out/results.jsonl`
(or `--results <path>`), and prints the result as the last line of standard
output.  A traced run also writes its spans to
`perfbench/out/trace-<workload>.csv`.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CRATES = ("netsim-graph", "netsim-sim", "netsim-io", "multimedia")
# The wire workload's failing operation waits out a 10 s round timeout once
# per cycle; no run may take longer than this.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark binary and returns its path."""
    missing = [c for c in CRATES if not os.path.isfile(os.path.join(ROOT, "crates", c, "Cargo.toml"))]
    if missing:
        fail(f"library crates missing under {os.path.join(ROOT, 'crates')}: {', '.join(missing)}")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(ROOT, target, "release", "perfbench")


def command_output(cmd, **kw):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, **kw)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_metadata(meta):
    def cache(name):
        v = command_output(["getconf", name])
        return int(v) if v and v.isdigit() else None

    # Stop git at the checkout root: a checkout that is not a repository has
    # no revision, even when it sits inside another repository.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": cache("LEVEL2_CACHE_SIZE"),
        "l3_bytes": cache("LEVEL3_CACHE_SIZE"),
        "block_shift": meta.get("block_shift"),
        "rustc": command_output(["rustc", "--version"]),
        "git_rev": command_output(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env),
    }


def run(args):
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--trace-file", os.path.join(HERE, "out", f"trace-{args.workload}.csv")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    meta = {}
    for line in lines[:-1]:
        if line.startswith("meta "):
            meta.update(json.loads(line[len("meta "):]))
    result = json.loads(lines[-1])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_metadata(meta), "result": result}
    results = args.results or os.path.join(HERE, "out", "results.jsonl")
    os.makedirs(os.path.dirname(os.path.abspath(results)), exist_ok=True)
    with open(results, "a") as f:
        f.write(json.dumps(record) + "\n")
    print(lines[-1])


# Metrics compared exactly: the program's deterministic counts.  Everything
# else is a host time, or depends on how many jobs a run fitted, and is
# compared against its bound (end-to-end) or not at all (per-layer).
EXACT_UNITS = {"rounds", "messages", "count", "ratio", "B"}
NOT_EXACT = {"engine.allocs_per_round", "trace.spans"}


def load(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(args.base), load(args.new)
    for side, recs in (("base", base), ("new", new)):
        hosts = {json.dumps(r["host"], sort_keys=True) for r in recs}
        for h in sorted(hosts):
            print(f"{side} host: {h}")
    ok = True
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<16}{'metric':<16}{'base':>14}{'new':>14}{'change':>9}{'bound':>8}  verdict")
    for w in workloads:
        for trace in (0, 1):
            b = [r for r in base if r["workload"] == w and r["trace"] == trace]
            n = [r for r in new if r["workload"] == w and r["trace"] == trace]
            if not b or not n:
                continue
            # Deterministic counts must match run for run, seed by seed.
            bseed = {r["seed"]: r["result"]["metrics"] for r in b}
            for r in n:
                old = bseed.get(r["seed"])
                if old is None:
                    continue
                for name, m in r["result"]["metrics"].items():
                    exact = m["unit"] in EXACT_UNITS and name not in NOT_EXACT
                    if exact and name in old and old[name]["value"] != m["value"]:
                        ok = False
                        print(f"{w:<16}{name:<16} seed {r['seed']}: {old[name]['value']} != {m['value']}  MISMATCH")
            for side in (b, n):
                for r in side:
                    if not r["result"]["correct"]:
                        ok = False
                        print(f"{w:<16}seed {r['seed']}: outputs incorrect  FAIL")
            bf = {(r["result"]["failed"], r["result"]["attempted"]) for r in b}
            nf = {(r["result"]["failed"], r["result"]["attempted"]) for r in n}
            bshare = {f / a for f, a in bf}
            nshare = {f / a for f, a in nf}
            if bshare != nshare:
                ok = False
                print(f"{w:<16}failed share {sorted(bshare)} -> {sorted(nshare)}  CHANGED")
            if trace == 1:
                continue
            # Timed metrics: medians against the metric's bound, one row per
            # workload and metric.
            for name, m in bounds.items():
                bv = statistics.median(r["result"]["metrics"][name]["value"] for r in b)
                nv = statistics.median(r["result"]["metrics"][name]["value"] for r in n)
                change = (nv - bv) / bv if bv else 0.0
                worse = change if m["better"] == "lower" else -change
                verdict = "ok" if worse <= m["bound"] else "REGRESSED"
                if verdict != "ok":
                    ok = False
                print(f"{w:<16}{name:<16}{bv:>14.6g}{nv:>14.6g}{change:>+9.1%}{m['bound']:>8.0%}  {verdict}")
    print("compare: " + ("clean" if ok else "differences found"))
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("new")
        sys.exit(compare(p.parse_args(sys.argv[2:])))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--results", help="result file to append to")
    run(p.parse_args())


if __name__ == "__main__":
    main()
