#!/usr/bin/env python3
"""Self-test of the benchmark on tiny circuits; takes about half a minute.

    python3 perfbench/selftest.py

Checks that a renamed fixture passes the output check, that a corrupted
reference makes it fail and counts every site as failed, that every metric
BENCHMARK.json names (and every one the benchmark's definition asks for) is
emitted with its unit, that the layer self times add up to the traced run,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = dict(n_pis=4, n_ffs=5, n_gates=40, n_pos=2)
REQUIRED = {
    "end_to_end": ["run_s", "setup_s", "peak_rss_mb"],
    "per_layer": [
        "netlist.parse_s", "cones.sites_s", "cones.cone_sets_s", "cones.sites", "cones.ff_sites",
        "cones.support_max", "cones.support_gt20", "ffsets.static_s", "ffsets.unique_sets",
        "ffsets.max_multiplicity", "propagation.site_s", "propagation.site_s.max",
        "propagation.miter_s", "propagation.encode_s", "propagation.vars", "propagation.clauses",
        "propagation.patterns", "propagation.regions", "propagation.optimize_s", "solver.load_s",
        "solver.add_clause_calls", "solver.sat_s", "solver.sat_calls", "solver.unsat_s",
        "solver.unsat_calls", "solver.unknown_calls", "solver.conflicts",
        "solver.conflicts_per_call", "oracle.sweep_s", "oracle.sweep_sites", "oracle.mismatches",
        "campaign.report_s", "cli.sets_json_s", "cli.write_s", "cli.bytes_written",
        "trace.overhead_s", "trace.unattributed_s",
        *(f"{layer}.self_s" for layer in
          ("netlist", "cones", "ffsets", "propagation", "solver", "oracle", "campaign", "cli")),
    ],
}


def emitted(res: dict, specs: list[dict]) -> dict:
    out = run.result_json(res, specs)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    for s in specs:
        assert out["metrics"][s["name"]]["unit"] == s["unit"], s
        assert isinstance(out["metrics"][s["name"]]["value"], (int, float)), s
    return out["metrics"]


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for kind, names in REQUIRED.items():
        missing = set(names) - {m["name"] for m in bench[kind]}
        assert not missing, f"BENCHMARK.json {kind} lacks {sorted(missing)}"
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)

    work = run.WORK / "selftest"
    deadline = time.monotonic() + 600
    for stage in ("run", "sets"):
        w = run.Workload(f"tiny-{stage}", 3, stage, TINY)
        assert run.fixture(w, 5) == run.fixture(w, 5)
        assert run.fixture(w, 5)[0] != run.fixture(w, 6)[0]
        ref = run.reference_for(w, work / "reference")

        res = run.measure(w, 5, 0.1, False, ref, work / "plain", deadline)
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res
        emitted(res, bench["end_to_end"])

        bad = copy.deepcopy(ref)
        bad["view"]["sets"] = "0" * 64
        if stage == "run":
            bad["view"]["totals"]["propagated"] = "1"
        res = run.measure(w, 5, 0.1, False, bad, work / "bad", deadline)
        assert not res["correct"] and res["failed"] == res["attempted"] > 0, res

        res = run.measure(w, 6, 0.1, True, ref, work / "trace", deadline)
        assert res["correct"], res
        m = emitted(res, bench["per_layer"])
        layers = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
        assert abs(layers + m["trace.unattributed_s"]["value"] - m["trace.run_s"]["value"]) < 1e-6
        assert m["oracle.mismatches"]["value"] == 0
        if stage == "run":
            assert m["oracle.sweep_sites"]["value"] == m["cones.ff_sites"]["value"] > 0
            assert m["solver.sat_calls"]["value"] == m["propagation.patterns"]["value"]
        print(f"selftest {stage}: ok")

    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local50", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("selftest without sources: ok")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
