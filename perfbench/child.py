"""One timed set2seu CLI run in a fresh interpreter, started by perfbench/run.py.

    python3 perfbench/child.py --import-only
    python3 perfbench/child.py STAGE INPUT OUTDIR [--trace TRACE_JSON]

`import set2seu.cli` is the first thing the interpreter does, so the
monotonic clock read right after it marks the end of set-up.  The last
stdout line is one JSON object: `imported` (that clock), and for a run the
exit code `rc`, `run_s` (wall seconds of `cli.main`) and `rss_mb` (peak
resident memory).

With --trace every public call into the package's modules is wrapped in a
span (name, start, end, parent, site), kept in memory.
After `cli.main` returns, and outside `run_s`, the fixture's properties are
computed and the exhaustive oracle re-derives every SAT pattern list whose
support is at most 20.  The spans, per-layer self times and counters go to
TRACE_JSON; the per-layer metrics are added to the stdout object.
"""

import time

import set2seu.cli

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from functools import cached_property  # noqa: E402
from pathlib import Path  # noqa: E402

from set2seu import cli, cones, ffsets, netlist, oracle, propagation, solver  # noqa: E402

LAYERS = ("netlist", "cones", "ffsets", "propagation", "solver", "oracle", "campaign", "cli")
ORACLE_LIMIT = oracle.DEFAULT_SUPPORT_LIMIT


class Tracer:
    """Spans around calls into the package, plus per-layer counters.

    `solver.add_clause` runs about a million times per workload, so it gets
    no span of its own: its time and call count are summed per enclosing
    span (`leaf`) and count as solver self time.
    """

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, site]
        self.stack: list[int] = []
        self.leaf: dict[int, float] = {}     # enclosing span -> add_clause seconds
        self.leaf_calls = 0
        self.counts: Counter = Counter()
        self.regions: set = set()
        self.circuit = None
        self.sites: list = []
        self.results: dict = {}

    def wrap(self, name, fn, site=None, done=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            tag = site(args) if site else (spans[parent][4] if parent is not None else None)
            rec = [name, 0.0, 0.0, parent, tag]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if done:
                done(args, result, rec)
            return result

        return traced

    def wrap_leaf(self, fn):
        leaf, stack = self.leaf, self.stack
        clock = time.perf_counter

        def traced(*args):
            t = clock()
            fn(*args)
            top = stack[-1] if stack else -1
            leaf[top] = leaf.get(top, 0.0) + clock() - t
            self.leaf_calls += 1

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        c = self.counts
        site_of = lambda a: a[0].net_names[a[1].site_net]  # noqa: E731

        def parsed(a, circ, rec):
            self.circuit = circ

        def sited(a, sites, rec):
            self.sites = sites
            c["cones.sites"] += len(sites)
            c["cones.ff_sites"] += sum(1 for s in sites if s.static_ffs)

        def collected(a, coll, rec):
            c["ffsets.unique_sets"] = coll.num_unique
            c["ffsets.max_multiplicity"] = coll.max_multiplicity

        def encoded(a, f, rec):
            c["propagation.vars"] += f.num_vars
            c["propagation.clauses"] += len(f.clauses)

        def enumerated(a, r, rec):
            self.results[r.site] = r
            self.regions.add(a[1].static_ffs)
            c["propagation.patterns"] += len(r.patterns)

        def solved(a, r, rec):
            c[f"solver.{r.status.lower()}_calls"] += 1
            c["solver.conflicts"] += r.conflicts
            rec[0] = f"solver.solve.{r.status.lower()}"

        def written(a, _, rec):
            c["cli.bytes_written"] += Path(a[0]).stat().st_size

        hooks = {
            "netlist.parse_bench": (None, parsed),
            "cones.enumerate_fault_sites": (None, sited),
            "cones.cone_ff_set": (None, None),
            "cones.site_support": (None, None),
            "cones.relevant_closure": (None, None),
            "cones.cones_to_json": (None, None),
            "cones.sites_to_json": (None, None),
            "ffsets.collect_static_sets": (None, collected),
            "ffsets.collection_to_json": (None, None),
            "ffsets.collection_to_csv": (None, None),
            "propagation.analyze_sites": (None, None),
            "propagation.enumerate_patterns": (site_of, enumerated),
            "propagation.build_miter": (None, None),
            "propagation.encode_cnf": (None, encoded),
            "propagation.optimize_sets": (None, None),
            "oracle.exhaustive_patterns": (site_of, None),
            "campaign.build_campaign": (None, None),
            "cli.load_circuit": (None, None),
            "cli.run_propagation": (None, None),
            "cli.sets_json": (None, None),
            "cli.patterns_json": (None, None),
            "cli.build_report": (None, None),
            "cli._write_json": (None, written),
            "cli._write_text": (None, written),
        }
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "set2seu"]
        for qual, (site, done) in hooks.items():
            mod, attr = qual.split(".")
            orig = getattr(sys.modules[f"set2seu.{mod}"], attr)
            new = self.wrap(qual, orig, site, done)
            for m in package:  # also the names other modules imported directly
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, new)

        orig_all = cones.all_cones
        traced_all = self.wrap("cones.all_cones", orig_all)

        def all_cones(circ):  # a span only for the call that builds the cache
            return orig_all(circ) if "_all_cones" in vars(circ) else traced_all(circ)

        for m in package:
            if vars(m).get("all_cones") is orig_all:
                m.all_cones = all_cones

        for name, prop in list(vars(netlist.Circuit).items()):
            if isinstance(prop, cached_property):
                lazy = cached_property(self.wrap(f"netlist.{name}", prop.func))
                lazy.__set_name__(netlist.Circuit, name)
                setattr(netlist.Circuit, name, lazy)

        solver.CdclSolver.solve = self.wrap("solver.solve", solver.CdclSolver.solve, None, solved)
        solver.CdclSolver.add_clause = self.wrap_leaf(solver.CdclSolver.add_clause)

    # -- accounting ---------------------------------------------------------

    def durations(self, prefix: str, lo: float, hi: float) -> list[float]:
        return [
            e - s for n, s, e, _, _ in self.spans
            if (n == prefix or n.startswith(prefix + ".")) and lo <= s <= hi
        ]

    def self_times(self, lo: float, hi: float) -> dict[str, float]:
        """Per layer: time of its spans in [lo, hi] not covered by child spans."""
        covered = [0.0] * len(self.spans)
        for _, s, e, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += e - s
        for i, t in self.leaf.items():
            if i >= 0:
                covered[i] += t
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, s, e, _, _) in enumerate(self.spans):
            if lo <= s <= hi:
                out[name.split(".")[0]] += e - s - covered[i]
        out["solver"] += sum(
            t for i, t in self.leaf.items() if i < 0 or lo <= self.spans[i][1] <= hi
        )
        return out

    def uncovered(self, lo: float, hi: float) -> float:
        """Time in [lo, hi] that no span and no add_clause call covers."""
        top = sum(e - s for _, s, e, p, _ in self.spans if p is None and lo <= s <= hi)
        return hi - lo - top - self.leaf.get(-1, 0.0)


def fixture_properties(tr: Tracer) -> dict:
    """Support sizes of FF-reaching sites, computed from the cone closures.

    A site's support is the set of PI / FF-Q nets in the union of its
    flip-flops' cone closures; per-FF bitmasks over those boundary nets make
    this cheap on the large front-end fixture.
    """
    c = tr.circuit
    boundary = {n: i for i, n in enumerate(n for n in range(c.num_nets) if c.driver[n][0] != "gate")}
    masks = []
    for cone in cones.all_cones(c):
        m = 0
        for n in cone.member_nets | cone.support:
            if n in boundary:
                m |= 1 << boundary[n]
        masks.append(m)
    support = {}
    for s in tr.sites:
        if s.static_ffs:
            m = 0
            for f in s.static_ffs:
                m |= masks[f]
            support[c.net_names[s.site_net]] = m.bit_count()
    sizes = list(support.values())
    regions = {s.static_ffs for s in tr.sites if s.static_ffs}
    hist = Counter(sizes)
    wide = sum(1 for k in sizes if k > ORACLE_LIMIT)
    return {
        "ff_sites": len(sizes),
        "regions": len(regions),
        "sites_per_region": len(sizes) / len(regions) if regions else 0.0,
        "support_max": max(sizes, default=0),
        "support_gt20": wide,
        "support_gt20_share": wide / len(sizes) if sizes else 0.0,
        "support_histogram": {str(k): hist[k] for k in sorted(hist)},
        "max_multiplicity": max((len(s.static_ffs) for s in tr.sites), default=0),
        "_support": support,
    }


def oracle_sweep(tr: Tracer, support: dict) -> tuple[int, int, list[str]]:
    """Exhaustive patterns vs SAT patterns on every analysed site with support <= 20."""
    c = tr.circuit
    swept, bad = 0, []
    for s in tr.sites:
        name = c.net_names[s.site_net]
        r = tr.results.get(name)
        if r is None or not r.complete or support[name] > ORACLE_LIMIT:
            continue
        swept += 1
        truth = {p.ffs.members for p in oracle.exhaustive_patterns(c, s)}
        if truth != {p.ffs.members for p in r.patterns}:
            bad.append(name)
    return swept, len(bad), bad


def run_cli(argv: list[str]) -> int:
    """cli.main, with a crash reported as exit code -1 so the run still counts."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def traced_run(argv: list[str], trace_path: Path) -> dict:
    tr = Tracer()
    tr.install()
    t0 = time.perf_counter()
    rc = run_cli(argv)
    t1 = time.perf_counter()
    run_s = t1 - t0
    layers = tr.self_times(t0, t1)
    unattributed = tr.uncovered(t0, t1)

    props = fixture_properties(tr) if tr.circuit is not None else {"_support": {}}
    support = props.pop("_support")
    t2 = time.perf_counter()
    swept, mismatches, bad = oracle_sweep(tr, support) if tr.results else (0, 0, [])
    t3 = time.perf_counter()

    def total(name: str) -> float:
        return sum(tr.durations(name, t0, t1))

    c = tr.counts
    solves = c["solver.sat_calls"] + c["solver.unsat_calls"] + c["solver.unknown_calls"]
    sites = tr.durations("propagation.enumerate_patterns", t0, t1)
    metrics = {
        "netlist.parse_s": total("netlist.parse_bench"),
        "netlist.ff_reach_s": total("netlist.ff_reach"),
        "cones.sites_s": total("cones.enumerate_fault_sites"),
        "cones.cone_sets_s": total("cones.cone_ff_set"),
        "cones.all_cones_s": total("cones.all_cones"),
        "cones.sites": c["cones.sites"],
        "cones.ff_sites": c["cones.ff_sites"],
        "cones.support_max": props.get("support_max", 0),
        "cones.support_gt20": props.get("support_gt20", 0),
        "ffsets.static_s": total("ffsets.collect_static_sets"),
        "ffsets.unique_sets": c["ffsets.unique_sets"],
        "ffsets.max_multiplicity": c["ffsets.max_multiplicity"],
        "propagation.site_s": sum(sites),
        "propagation.site_s.max": max(sites, default=0.0),
        "propagation.miter_s": total("propagation.build_miter"),
        "propagation.encode_s": total("propagation.encode_cnf"),
        "propagation.vars": c["propagation.vars"],
        "propagation.clauses": c["propagation.clauses"],
        "propagation.patterns": c["propagation.patterns"],
        "propagation.regions": len(tr.regions),
        "propagation.optimize_s": total("propagation.optimize_sets"),
        "solver.load_s": sum(tr.leaf.values()),
        "solver.add_clause_calls": tr.leaf_calls,
        "solver.sat_s": total("solver.solve.sat"),
        "solver.sat_calls": c["solver.sat_calls"],
        "solver.unsat_s": total("solver.solve.unsat"),
        "solver.unsat_calls": c["solver.unsat_calls"],
        "solver.unknown_calls": c["solver.unknown_calls"],
        "solver.conflicts": c["solver.conflicts"],
        "solver.conflicts_per_call": c["solver.conflicts"] / solves if solves else 0.0,
        "oracle.sweep_s": sum(tr.durations("oracle.exhaustive_patterns", t2, t3)),
        "oracle.sweep_sites": swept,
        "oracle.mismatches": mismatches,
        "campaign.report_s": total("campaign.build_campaign"),
        "cli.sets_json_s": total("cli.sets_json"),
        "cli.write_s": total("cli._write_json") + total("cli._write_text"),
        "cli.bytes_written": c["cli.bytes_written"],
        "trace.run_s": run_s,
        "trace.unattributed_s": unattributed,
    }
    metrics.update({f"{layer}.self_s": t for layer, t in layers.items()})

    lazy = [
        {"name": n, "seconds": e - s, "absorbed_by": tr.spans[p][0] if p is not None else None}
        for n, s, e, p, _ in tr.spans
        if n.startswith("netlist.") and n != "netlist.parse_bench" or n == "cones.all_cones"
    ]
    trace_path.write_text(json.dumps({
        "run_s": run_s,
        "layer_self_s": layers,
        "unattributed_s": unattributed,
        "metrics": metrics,
        "fixture": props,
        "lazy": lazy,
        "oracle_mismatch_sites": bad,
        "add_clause_s_by_span": {str(i): t for i, t in tr.leaf.items()},
        "spans": [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "site": site}
            for n, s, e, p, site in tr.spans
        ],
    }) + "\n")
    return {
        "rc": rc,
        "run_s": run_s,
        "metrics": metrics,
        "accounting_error_s": sum(layers.values()) + unattributed - run_s,
    }


def main(argv: list[str]) -> int:
    if argv == ["--import-only"]:
        print(json.dumps({"imported": IMPORTED}))
        return 0
    stage, bench, outdir, *rest = argv
    cli_argv = [stage, "--input", bench, "--out", outdir, "--jobs", "1"]
    if rest:
        out = traced_run(cli_argv, Path(rest[1]))
    else:
        t0 = time.perf_counter()
        rc = run_cli(cli_argv)
        out = {"rc": rc, "run_s": time.perf_counter() - t0}
    out["imported"] = IMPORTED
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
