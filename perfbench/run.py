#!/usr/bin/env python3
"""Seeded end-to-end benchmark for the set2seu command line.

    python3 perfbench/run.py --workload local50 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --write-reference

Each workload is one random circuit from `make_random_circuit` with a fixed
generator seed and size.  `--seed` renames every net of it with seeded
random names, so each seed gives a different `.bench` text with the same
structure and the same work; the program only ever sees that file.  Net
ids follow line order, which the renaming keeps: reordering lines changes
the solver's variable order, and with it the search (on local50 a line
shuffle moved the conflict count by 43%), so seeds would stop being
comparable.

`--trace 0` measures for `--seconds`: a batch of import-only interpreters
for `setup_s`, then at least three fresh `cli.main` runs.  `--trace 1`
makes one untraced and one traced run and reports the per-layer metrics
the traced one writes (see perfbench/child.py).  Every run's outputs are
checked against perfbench/reference.json, mapped through the seed's
renaming.  The last stdout line is the JSON result; metric names and units
come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(SRC))

SETUP_SAMPLES = 10     # import-only interpreters per timed measurement
MIN_RUNS = 3           # timed runs per measurement, even past --seconds
DEADLINE_S = 170       # the whole invocation ends well inside 180 s
_NAME = re.compile(r"\b[pqn]\d+\b")   # every net name make_random_circuit emits


@dataclass(frozen=True)
class Workload:
    name: str
    gen_seed: int
    stage: str
    params: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("local50", 4242, "run",
                 dict(n_pis=10, n_ffs=50, n_gates=500, n_pos=10, locality=25)),
        Workload("wide50", 7, "run", dict(n_pis=10, n_ffs=50, n_gates=500, n_pos=10)),
        Workload("static500", 11, "sets",
                 dict(n_pis=32, n_ffs=500, n_gates=10000, n_pos=32, locality=64)),
    )
}


# -- fixtures -----------------------------------------------------------------


def fixture(w: Workload, seed: int | None) -> tuple[str, dict[str, str]]:
    """The workload's `.bench` text and a map from its names back to canonical ones.

    seed None keeps the generator's own names (used for the reference).
    """
    from set2seu.netlist import to_bench
    from set2seu.random_circuits import make_random_circuit

    text = to_bench(make_random_circuit(w.gen_seed, **w.params))
    if seed is None:
        return text, {}
    names = list(dict.fromkeys(_NAME.findall(text)))
    rng = random.Random(f"{w.name}/{seed}")
    new = {old: f"s{label:08x}" for old, label in zip(names, rng.sample(range(16**8), len(names)))}
    return _NAME.sub(lambda m: new[m.group()], text), {v: k for k, v in new.items()}


# -- output check -------------------------------------------------------------


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def semantic_view(outdir: Path, stage: str, canon: dict[str, str]) -> dict:
    """What the run computed, in canonical names, without run-specific fields.

    `report.json` is not byte-compared: `generated_at` changes every run and
    fields added later must not count as a difference.
    """
    c = lambda n: canon.get(n, n)  # noqa: E731
    sets = json.loads((outdir / "sets.json").read_text())
    view = {
        "num_sets": sets["num_sets"],
        "num_superset": sets["num_superset"],
        "max_multiplicity": sets["max_multiplicity"],
        "sets": _digest(sorted(
            (sorted(map(c, s["members"])), s["multiplicity"], sorted(map(c, s["sites"])))
            for s in sets["sets"]
        )),
        "cones": _digest(sorted(
            (c(r["cone"]), sorted(map(c, r["members"])), r["multiplicity"]) for r in sets["cones"]
        )),
        "sites": len(sets["raw"]),
    }
    if stage == "run":
        rows = json.loads((outdir / "patterns.json").read_text())["sites"]
        view["sites"] = len(rows)
        view["patterns"] = _digest(sorted(
            (c(r["site"]), sorted(sorted(map(c, p)) for p in r["patterns"]),
             r["complete"], r["overflow"], r["unknown"])
            for r in rows
        ))
        view["fallback_sites"] = sum(1 for r in rows if r["overflow"] or r["unknown"])
        report = json.loads((outdir / "report.json").read_text())
        view["totals"] = {m: v["total_faults"] for m, v in sorted(report["methods"].items())}
        view["sfi"] = [[p["method"], p["margin"], p["n"]] for p in report["sfi"]["plans"]]
    return view


def check(outdir: Path, stage: str, canon: dict[str, str], ref: dict, rc: int) -> tuple[int, int, str]:
    """(attempted sites, failed sites, problem or "") for one run."""
    attempted = ref["view"]["sites"]
    if rc != 0:
        return attempted, attempted, f"exit code {rc}"
    try:
        view = semantic_view(outdir, stage, canon)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return attempted, attempted, f"unreadable output: {e!r}"
    diff = sorted(k for k in set(view) | set(ref["view"]) if view.get(k) != ref["view"].get(k))
    if diff:
        return attempted, attempted, "differs from reference in " + ", ".join(diff)
    return attempted, view.get("fallback_sites", 0), ""


# -- child processes ----------------------------------------------------------


def spawn(args: list[str], log: Path, deadline: float) -> tuple[dict, float]:
    """Run perfbench/child.py; return its JSON line and the monotonic start time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    ), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    with open(log, "a") as err:
        start = time.monotonic()
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=env,
            timeout=max(1.0, deadline - start),
        )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {args} exited with {proc.returncode}; see {log}")
    return json.loads(lines[-1]), start


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, else the maximum."""
    v = sorted(values)
    n = len(v)
    if n >= 21:  # below that, only percentiles under the median qualify
        return f"p{100 * (n - 11) // (n - 1)} {v[n - 11]:.4f} s"
    return f"max {v[-1]:.4f} s (n < 21: no percentile above the median has ten samples beyond it)"


# -- measurement ----------------------------------------------------------------


def measure(w: Workload, seed: int, seconds: float, trace: bool, ref: dict,
            work: Path, deadline: float) -> dict:
    """One benchmark run; returns raw metric values plus the accounting fields."""
    text, canon = fixture(w, seed)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = work / "fixture.bench"
    bench.write_text(text)
    log = work / "stderr.log"
    out = work / "out"
    attempted = failed = 0
    problems: list[str] = []

    def timed(*extra: str) -> dict:
        nonlocal attempted, failed
        shutil.rmtree(out, ignore_errors=True)
        res, start = spawn([w.stage, str(bench), str(out), *extra], log, deadline)
        res["setup_s"] = res["imported"] - start
        res["wall_s"] = time.monotonic() - start
        a, f, problem = check(out, w.stage, canon, ref, res["rc"])
        attempted += a
        failed += f
        if problem:
            problems.append(problem)
        return res

    lines = []
    if trace:
        plain = timed()
        traced = timed("--trace", str(work / "trace.json"))
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        if metrics["oracle.mismatches"]:
            problems.append(f"oracle disagrees with SAT on {metrics['oracle.mismatches']} sites")
        if abs(traced["accounting_error_s"]) > 1e-6:
            problems.append(f"layer self times miss run_s by {traced['accounting_error_s']}")
        props = json.loads((work / "trace.json").read_text())["fixture"]
        lines.append(f"  fixture: {json.dumps(props)}")
        lines.append(f"  trace written to {work / 'trace.json'}")
    else:
        begin = time.monotonic()
        setups = []
        for _ in range(SETUP_SAMPLES):
            res, start = spawn(["--import-only"], log, deadline)
            setups.append(res["imported"] - start)
        runs: list[dict] = []
        while True:
            runs.append(timed())
            est = statistics.median(r["wall_s"] for r in runs)
            now = time.monotonic()
            if len(runs) >= MIN_RUNS and now + est > begin + seconds:
                break
            if now + 1.5 * est > deadline:
                break
        run_s = [r["run_s"] for r in runs]
        setups += [r["setup_s"] for r in runs]
        metrics = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        }
        lines += [
            f"  run_s        {metrics['run_s']:.4f} s  median of n={len(run_s)} runs; {tail(run_s)};"
            f" runs {' '.join(f'{t:.3f}' for t in run_s)}",
            f"  setup_s      {metrics['setup_s']:.4f} s  median of n={len(setups)} interpreters",
            f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  median of n={len(runs)} runs",
        ]
    lines.append(f"  failed_ratio {failed / attempted:.4g} ratio  ({failed} of {attempted} sites failed)")
    for p in dict.fromkeys(problems):
        lines.append(f"  CHECK FAILED: {p}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "values": metrics,
        "lines": [f"{w.name} seed {seed} trace {int(trace)}:"] + lines,
    }


def result_json(res: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in res["values"]]
    if missing:
        raise KeyError(f"benchmark produced no value for {missing}")
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            s["name"]: {"value": res["values"][s["name"]], "unit": s["unit"]} for s in specs
        },
    }


def reference_for(w: Workload, work: Path) -> dict:
    """Traced run of the canonical fixture: its outputs and fixture properties."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = work / "fixture.bench"
    bench.write_text(fixture(w, None)[0])
    res, _ = spawn(
        [w.stage, str(bench), str(work / "out"), "--trace", str(work / "trace.json")],
        work / "stderr.log", time.monotonic() + 600,
    )
    if res["rc"] != 0 or res["metrics"]["oracle.mismatches"]:
        raise RuntimeError(f"{w.name}: reference run failed: {res}")
    return {
        "view": semantic_view(work / "out", w.stage, {}),
        "fixture": json.loads((work / "trace.json").read_text())["fixture"],
    }


def write_reference() -> None:
    refs = {w.name: reference_for(w, WORK / f"reference-{w.name}") for w in WORKLOADS.values()}
    for name, ref in refs.items():
        print(f"{name}: {json.dumps(ref)}")
    REFERENCE.write_text(json.dumps(refs, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "set2seu").is_dir():
        print(f"perfbench: no set2seu sources under {SRC}", file=sys.stderr)
        return 2
    try:
        import set2seu.cli  # noqa: F401  -- fail before printing anything
    except ImportError as e:
        print(f"perfbench: cannot import set2seu from {SRC}: {e}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if not args.workload:
        ap.error("--workload is required")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    refs = json.loads(REFERENCE.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        res = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), refs[name],
                      WORK / f"{name}-{args.seed}-{args.trace}", deadline)
        print("\n".join(res["lines"]), flush=True)
        results[name] = result_json(res, specs)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
