"""Command-line pipeline: parse -> cones -> sites -> sets -> propagate -> report.

Subcommands run a prefix of the pipeline and emit that stage's artifacts;
`report` can instead consume previously emitted stage files.  Progress
goes to stderr, machine-readable artifacts to files / stdout.

Exit codes: 0 success (overflowed sites are still sound), 2 netlist/config
errors, 3 I/O errors, 4 missing upstream artifact.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from itertools import repeat
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from . import campaign, cones, ffsets, netlist, propagation

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_MISSING_STAGE = 4


@dataclass(frozen=True)
class RunConfig:
    input: str | None = None
    mode: str = "collapsed"
    exclude: tuple[str, ...] = ()
    pattern_cap: int = propagation.DEFAULT_PATTERN_CAP
    conflict_cap: int = propagation.DEFAULT_CONFLICT_CAP
    margins: tuple[float, ...] = campaign.DEFAULT_MARGINS
    confidence: float = 95.0
    out: str = "out"
    jobs: int = 1
    verbose: bool = False
    export_cnf: bool = False

    def validate(self) -> None:
        if self.mode not in ("collapsed", "all_nets"):
            raise ValueError(f"invalid mode '{self.mode}'")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.pattern_cap < 1:
            raise ValueError("pattern_cap must be >= 1")
        if self.conflict_cap < 0:
            raise ValueError("conflict_cap must be >= 0")
        if not self.margins:
            raise ValueError("margins must list at least one margin")
        columns: dict[str, float] = {}
        for m in self.margins:
            if not 0 < m < 1:
                raise ValueError(f"margin {m} outside (0, 1)")
            col = campaign.margin_column(m)
            if col in columns:
                raise ValueError(f"margins {columns[col]} and {m} share report.csv column {col}")
            columns[col] = m
        campaign.cutoff_for_confidence(self.confidence)


def config_from_file(path: str) -> dict:
    """Flat key = value text; '#' comments; lists are comma separated."""
    values: dict = {}
    set_on: dict[str, int] = {}   # the line that set each key
    names = {f.name for f in fields(RunConfig)}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in names:
            raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in set_on:
            raise ValueError(
                f"{path}:{lineno}: config key '{key}' is already set at {path}:{set_on[key]}"
            )
        set_on[key] = lineno
        try:
            values[key] = _coerce(key, val.strip())
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    return values


_TYPES = {
    "pattern_cap": int, "conflict_cap": int, "jobs": int, "confidence": float, "margins": float
}


def _coerce(key: str, val: str):
    """The value of setting `key` written as text, in a flag or a config line."""
    if key in ("verbose", "export_cnf"):
        if val.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            raise ValueError(f"setting '{key}': '{val}' is not true or false")
        return val.lower() in ("1", "true", "yes", "on")
    kind = _TYPES.get(key, str)
    try:
        if key in ("exclude", "margins"):
            return tuple(kind(v.strip()) for v in val.split(",") if v.strip())
        return kind(val)
    except ValueError:
        what = "an integer" if kind is int else "numeric"
        raise ValueError(f"setting '{key}': '{val}' is not {what}") from None


def log(msg: str) -> None:
    print(f"[set2seu] {msg}", file=sys.stderr)


def _write_json(path: Path, obj) -> None:
    """Write `obj` as `json.dump(obj, fh, indent=2)` would, plus a newline."""
    with path.open("w") as fh:
        fh.writelines(_json_chunks(obj, "\n"))
        fh.write("\n")


def _json_chunks(o, nl: str, levels: int = 2):
    """The text of `o` in the `indent=2` layout, in pieces; `nl` is a newline
    plus the indentation of o's own line.  The items of a list, or of a dict
    with str keys, down to `levels` levels, where the rows of every artifact
    sit, are one piece each, rendered whole by `_json_text`."""
    t = type(o)
    if levels and o and (t is list or t is tuple):
        heads, values, ends = repeat(""), o, "[]"
    elif levels and o and t is dict and all(isinstance(k, str) for k in o):
        heads, values, ends = (f"{_encode_str(k)}: " for k in o), o.values(), "{}"
    else:
        yield _json_text(o, nl)
        return
    inner = nl + "  "
    sep = ends[0] + inner
    for head, v in zip(heads, values):
        if levels > 1:
            yield sep + head
            yield from _json_chunks(v, inner, levels - 1)
        else:
            yield sep + head + _json_text(v, inner)
        sep = "," + inner
    yield nl + ends[1]


_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_text(o, nl: str) -> str:
    """The whole text of `o` in the `indent=2` layout; `nl` as in `_json_chunks`.

    `json.dump` with an indent runs the pure-Python encoder.  This one uses
    the C string escaper: a `ffsets.MemberNames` list joins its members'
    encoded names, picked by id, and a list of strings is joined in one go.
    A float, a value of any other type, or a dict with a key that is not a
    string, is left to `json.dumps`.
    """
    t = type(o)
    inner = nl + "  "
    if t is dict:
        if not o:
            return "{}"
        parts = []
        try:
            for k, v in o.items():
                scalar = _SCALARS.get(type(v))
                text = scalar(v) if scalar is not None else _json_text(v, inner)
                parts.append(f"{_encode_str(k)}: {text}")
            return f"{{{inner}{f',{inner}'.join(parts)}{nl}}}"
        except TypeError:  # a key that is not a string
            pass
    elif t is list or t is tuple or t is ffsets.MemberNames:
        if not o:
            return "[]"
        sep = "," + inner
        if t is ffsets.MemberNames:
            return f"[{inner}{sep.join(ffsets.pick(o.encoded, o.ids))}{nl}]"
        try:  # str subclasses encode as str
            return f"[{inner}{sep.join(map(_encode_str, o))}{nl}]"
        except TypeError:  # an item that is not a string
            return f"[{inner}{sep.join([_json_text(v, inner) for v in o])}{nl}]"
    elif t in _SCALARS:
        return _SCALARS[t](o)
    return json.dumps(o, indent=2).replace("\n", nl)


def _write_text(path: Path, text: str) -> None:
    path.write_text(text)


# -- stages -------------------------------------------------------------------


def load_circuit(cfg: RunConfig) -> netlist.Circuit:
    if not cfg.input:
        raise FileNotFoundError("no input netlist given (use --input)")
    text = Path(cfg.input).read_text()
    if cfg.input.endswith(".json"):
        c = netlist.circuit_from_json(text, exclude=cfg.exclude)
    else:
        c = netlist.parse_bench(text, exclude=cfg.exclude)
    s = c.stats()
    log(
        f"parse: {cfg.input}: {s.num_ffs} FFs, {s.num_gates} gates, "
        f"{s.num_pis} PIs, {s.num_pos} POs, {s.num_nets} nets"
    )
    return c


def sets_json(c: netlist.Circuit, static: ffsets.SetCollection) -> dict:
    cone_sets = ffsets.collect_cone_sets(c)
    named = {s: ffsets.MemberNames(s.members, static) for s in cone_sets.unique_sets}
    # each raw row points at its set's row in "sets", so a set's names are written once
    index = {s: i for i, s in enumerate(static.unique_sets)}
    return {
        "circuit": asdict(c.stats()),
        "ffs": [f.name for f in c.flipflops],
        "cones": [
            {"cone": f.name, "members": named[s], "multiplicity": s.multiplicity}
            for f, (_, s) in zip(c.flipflops, cone_sets.raw_sets)
        ],
        "num_sets": static.num_sets,
        "num_superset": static.num_unique,
        "max_multiplicity": static.max_multiplicity,
        "sets": ffsets.collection_to_json(static),
        "raw": [{"site": ref, "set": index[s]} for ref, s in static.raw_sets],
    }


def patterns_json(c: netlist.Circuit, results: dict[str, propagation.PatternResult]) -> dict:
    rows = []
    for r in results.values():
        names = sorted(
            ([c.flipflops[f].name for f in p.ffs.members] for p in r.patterns),
            key=lambda m: (len(m), m),
        )
        row = {
            "site": r.site,
            "patterns": names,
            "complete": r.complete,
            "overflow": r.overflow,
            "unknown": r.unknown,
        }
        if r.overflow:
            row["fallback"] = [c.flipflops[f].name for f in r.static_ffs.members]
        rows.append(row)
    return {"circuit": asdict(c.stats()), "ffs": [f.name for f in c.flipflops], "sites": rows}


def _json_list(value, path, what: str) -> list:
    """`value`, which must be a JSON list: a string would be read one character at a time."""
    if not isinstance(value, list):
        raise ValueError(f"{path}: {what} is not a list")
    return value


def _check_unique(names, path, what: str) -> None:
    """A name that occurs twice in `names` is an error in `path`."""
    seen = set()
    for n in names:
        if n in seen:
            raise ValueError(f"{path}: {what} '{n}' is listed twice")
        seen.add(n)


def _read_ffset(idx: dict[str, int], names: list, path, site: str, owner: str) -> ffsets.FFSet:
    """The FFSet of flip-flop `names`, which `owner` lists for `site`; anything
    but a nonempty list of distinct known names is an error in `path`."""
    if not _json_list(names, path, f"a flip-flop list of site '{site}'"):
        raise ValueError(f"{path}: site '{site}' has an empty flip-flop list")
    try:
        s = ffsets.ffset(idx[n] for n in names)
    except KeyError as e:
        raise ValueError(f"{path}: site '{site}' names unknown flip-flop '{e.args[0]}'") from None
    if s.multiplicity != len(names):
        twice = next(n for n in names if names.count(n) > 1)
        raise ValueError(f"{path}: {owner} lists flip-flop '{twice}' twice")
    return s


@contextmanager
def _reading(path: Path):
    """Turn a missing key or a wrong type met while reading artifact `path` into a ValueError."""
    try:
        yield
    except KeyError as e:
        raise ValueError(f"{path}: missing key {e}") from None
    except (TypeError, json.JSONDecodeError) as e:
        raise ValueError(f"{path}: malformed: {e}") from None


def static_from_json(data: dict, path: Path) -> ffsets.SetCollection:
    """Inverse of sets_json's "raw" rows: each site with the set its index
    points at.  Each set's names are read once and may not repeat; its
    "sites" must be the raw rows that point at it, in order, and its
    "multiplicity", like "num_sets", "num_superset" and "max_multiplicity",
    must be the count that the rows give."""
    ff_names = tuple(_json_list(data["ffs"], path, "'ffs'"))
    if not all(isinstance(n, str) for n in ff_names):
        raise ValueError(f"{path}: 'ffs' holds a flip-flop name that is not a string")
    _check_unique(ff_names, path, "flip-flop")
    idx = {n: i for i, n in enumerate(ff_names)}
    set_rows = _json_list(data["sets"], path, "'sets'")
    parsed: dict[int, ffsets.FFSet] = {}
    sites_of: dict[int, list] = {}
    raw = []
    for row in _json_list(data["raw"], path, "'raw'"):
        site = row["site"]
        if "set" not in row and "members" in row:
            raise ValueError(
                f"{path}: raw row of site '{site}' lists members instead of a set index, "
                "the layout of older versions; write it again with `set2seu sets`"
            )
        k = row["set"]
        if type(k) is not int or not 0 <= k < len(set_rows):
            raise ValueError(
                f"{path}: site '{site}' points at set {json.dumps(k)}, not an index into 'sets'"
            )
        if k not in parsed:
            parsed[k] = _read_ffset(idx, set_rows[k]["members"], path, site, f"set {k}")
            sites_of[k] = []
        sites_of[k].append(site)
        raw.append((site, parsed[k]))
    _check_unique((ref for ref, _ in raw), path, "site")
    for k, row in enumerate(set_rows):
        if k not in sites_of or row["sites"] != sites_of[k]:
            raise ValueError(f"{path}: the sites of set {k} are not the raw rows that point at it")
        _check_count(row["multiplicity"], parsed[k].multiplicity, path, f"multiplicity of set {k}")
    static = ffsets.SetCollection(ff_names, tuple(raw))
    for key, count in (
        ("num_sets", static.num_sets),
        ("num_superset", static.num_unique),
        ("max_multiplicity", static.max_multiplicity),
    ):
        _check_count(data[key], count, path, f"'{key}'")
    return static


def _check_count(value, count: int, path, what: str) -> None:
    """`value`, read from `path`, must be the integer `count` that the rows give."""
    if type(value) is not int or value != count:
        raise ValueError(f"{path}: {what} is {json.dumps(value)}, but the rows give {count}")


# (complete, overflow, unknown) as a PatternResult gives them: proved
# complete, stopped at the pattern cap, or stopped by the conflict budget
_RESULT_FLAGS = {(True, False, False), (False, True, False), (False, True, True)}


def patterns_from_json(
    data: dict, static: ffsets.SetCollection, path: Path
) -> dict[str, propagation.PatternResult]:
    """Inverse of patterns_json; each site's fallback is its set in `static`,
    and each of its patterns must lie inside that set."""
    idx = {n: i for i, n in enumerate(static.ff_names)}
    static_of = dict(static.raw_sets)
    results = {}
    for row in data["sites"]:
        site = row["site"]
        flags = {k: row[k] for k in ("complete", "overflow", "unknown")}
        if not all(isinstance(v, bool) for v in flags.values()):
            raise TypeError(f"site '{site}': complete, overflow and unknown must be true or false")
        if tuple(flags.values()) not in _RESULT_FLAGS:
            raise ValueError(
                f"{path}: site '{site}' has complete/overflow/unknown "
                f"{'/'.join(str(v).lower() for v in flags.values())}, which no analysis yields"
            )
        reach = set(static_of[site].members)
        lists = _json_list(row["patterns"], path, f"'patterns' of site '{site}'")
        owner = f"a pattern of site '{site}'"
        patterns = tuple(_read_ffset(idx, p, path, site, owner) for p in lists)
        _check_unique(
            (", ".join(static.ff_names[f] for f in p.members) for p in patterns),
            path,
            f"site '{site}' pattern",
        )
        for p in patterns:
            outside = set(p.members) - reach
            if outside:
                name = static.ff_names[min(outside)]
                raise ValueError(
                    f"{path}: site '{site}' lists flip-flop '{name}' outside its static set"
                )
        results[site] = propagation.PatternResult(
            site=site,
            patterns=tuple(propagation.DifferencePattern(site, p) for p in patterns),
            overflow=flags["overflow"],
            unknown=flags["unknown"],
            static_ffs=static_of[site],
        )
    return results


def run_propagation(
    cfg: RunConfig, c: netlist.Circuit, sites: list[cones.FaultSite]
) -> dict[str, propagation.PatternResult]:
    work = [s for s in sites if s.static_ffs]
    log(f"propagate: {len(work)} sites (cap {cfg.pattern_cap}, jobs {cfg.jobs})")
    t0 = time.monotonic()
    regions = propagation.site_regions(c, work)   # shared with the DIMACS export
    results = propagation.analyze_sites(
        c, sites, cfg.pattern_cap, cfg.conflict_cap, cfg.jobs, regions
    )
    if cfg.verbose:
        for r in results.values():
            log(
                f"  site {r.site}: {len(r.patterns)} patterns"
                f"{' overflow' if r.overflow else ''} by {r.engine} in {r.seconds:.3f}s,"
                f" {r.solves} solves"
            )
    n_over = sum(1 for r in results.values() if r.overflow)
    log(f"propagate: done in {time.monotonic() - t0:.2f}s, {n_over} overflowed")
    if cfg.export_cnf:
        cnf_dir = Path(cfg.out) / "cnf"
        cnf_dir.mkdir(parents=True, exist_ok=True)
        for s in work:
            path = cnf_dir / f"site_{s.site_net}.cnf"
            path.write_text(propagation.export_site_cnf(c, s, regions[s.static_ffs]))
        log(f"propagate: exported {len(work)} DIMACS files to {cnf_dir}")
    return results


def build_report(
    cfg: RunConfig,
    c_stats: dict,
    static: ffsets.SetCollection,
    results: dict[str, propagation.PatternResult],
) -> tuple[dict, campaign.CampaignReport]:
    optimized = propagation.optimize_sets(static, results)
    report = campaign.build_campaign(static, optimized, cfg.margins, cfg.confidence)
    body = report.to_json()
    body["circuit"] = c_stats
    body["overflow_sites"] = sum(1 for r in results.values() if r.overflow)
    body["unknown_sites"] = sum(1 for r in results.values() if r.unknown)
    body["config"] = {
        "mode": cfg.mode,
        "exclude": list(cfg.exclude),
        "pattern_cap": cfg.pattern_cap,
        "conflict_cap": cfg.conflict_cap,
        "margins": list(cfg.margins),
        "confidence": cfg.confidence,
        "jobs": cfg.jobs,
    }
    body["generated_at"] = datetime.now(timezone.utc).isoformat()
    return body, report


def write_report(
    cfg: RunConfig,
    c_stats: dict,
    static: ffsets.SetCollection,
    results: dict[str, propagation.PatternResult],
) -> int:
    """Write report.json/csv and log the totals, warning when Eq-1 grows."""
    body, report = build_report(cfg, c_stats, static, results)
    outdir = Path(cfg.out)
    _write_json(outdir / "report.json", body)
    _write_text(outdir / "report.csv", report.to_csv())
    log(
        f"report: static {report.static.total_faults} -> propagated "
        f"{report.propagated.total_faults} (random {report.random.total_faults})"
    )
    if not report.monotonic_reduction:
        log(
            "warning: propagated total exceeds static total; per-set counting "
            "double-counts overlapping combinations on this circuit"
        )
    log(f"wrote {outdir / 'report.json'}, {outdir / 'report.csv'}")
    return EXIT_OK


def run_pipeline(cfg: RunConfig, stage: str = "report") -> int:
    """Run the pipeline up to `stage`, writing each stage's artifacts as it
    finishes: only that stage's, or every stage's when `stage` is "run"."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)

    c = load_circuit(cfg)
    if stage == "parse":
        _write_json(outdir / "circuit.json", netlist.circuit_to_json(c))
        log(f"wrote {outdir / 'circuit.json'}")
        return EXIT_OK

    site_list = cones.enumerate_fault_sites(c, cfg.mode)
    log(f"cones: {len(c.flipflops)} cones, {len(site_list)} fault sites ({cfg.mode})")
    if stage in ("cones", "run"):
        _write_json(outdir / "cones.json", cones.cones_to_json(c))
        _write_json(outdir / "sites.json", cones.sites_to_json(c, site_list))
        log(f"wrote {outdir / 'cones.json'}, {outdir / 'sites.json'}")
    if stage == "cones":
        return EXIT_OK

    static = ffsets.collect_static_sets(c, site_list)
    log(
        f"sets: {static.num_sets} sets, {static.num_unique} unique, "
        f"max multiplicity {static.max_multiplicity}"
    )
    if stage in ("sets", "run"):
        _write_json(outdir / "sets.json", sets_json(c, static))
        _write_text(outdir / "sets.csv", ffsets.collection_to_csv(static))
        log(f"wrote {outdir / 'sets.json'}, {outdir / 'sets.csv'}")
    if stage == "sets":
        return EXIT_OK

    results = run_propagation(cfg, c, site_list)
    if stage in ("propagate", "run"):
        _write_json(outdir / "patterns.json", patterns_json(c, results))
        log(f"wrote {outdir / 'patterns.json'}")
    if stage == "propagate":
        return EXIT_OK

    return write_report(cfg, asdict(c.stats()), static, results)


def report_from_artifacts(cfg: RunConfig) -> int:
    """Build report.json/csv from previously emitted sets.json/patterns.json."""
    outdir = Path(cfg.out)
    sets_path = outdir / "sets.json"
    patterns_path = outdir / "patterns.json"
    if not sets_path.exists():
        log("missing upstream artifact for stage 'sets' (sets.json)")
        return EXIT_MISSING_STAGE
    if not patterns_path.exists():
        log("missing upstream artifact for stage 'propagate' (patterns.json)")
        return EXIT_MISSING_STAGE
    with _reading(sets_path):
        sets_data = json.loads(sets_path.read_text())
        static = static_from_json(sets_data, sets_path)
        c_stats = sets_data["circuit"]
    with _reading(patterns_path):
        pat_data = json.loads(patterns_path.read_text())
        if tuple(_json_list(pat_data["ffs"], patterns_path, "'ffs'")) != static.ff_names:
            raise ValueError(f"{patterns_path} and {sets_path} list different flip-flops")
        if [r["site"] for r in pat_data["sites"]] != [ref for ref, _ in static.raw_sets]:
            raise ValueError(f"{patterns_path} and {sets_path} list different fault sites")
        results = patterns_from_json(pat_data, static, patterns_path)
    return write_report(cfg, c_stats, static, results)


def sfi_only(cfg: RunConfig, population: int) -> int:
    t = campaign.cutoff_for_confidence(cfg.confidence)
    plans = [
        {"margin": m, "n": campaign.sfi_sample_size(population, m, t)}
        for m in cfg.margins
    ]
    print(
        json.dumps(
            {"N": str(population), "confidence": cfg.confidence, "t": t, "plans": plans},
            indent=2,
        )
    )
    return EXIT_OK


# -- argument handling ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--input", help=".bench or circuit .json netlist")
    common.add_argument("--mode", choices=["collapsed", "all_nets"])
    common.add_argument("--exclude", help="comma-separated net names (clock/reset)")
    common.add_argument("--pattern-cap", dest="pattern_cap")
    common.add_argument("--conflict-cap", dest="conflict_cap")
    common.add_argument("--margins", help="comma-separated error margins")
    common.add_argument("--confidence")
    common.add_argument("--out", help="output directory (default: out)")
    common.add_argument("--jobs")
    common.add_argument("--verbose", action="store_const", const="true")
    common.add_argument(
        "--export-cnf",
        action="store_const",
        const="true",
        dest="export_cnf",
        help="also write one DIMACS file per analyzed site",
    )

    ap = argparse.ArgumentParser(
        prog="set2seu",
        description=(
            "Identify which flip-flops each gate-level single-event transient can "
            "upset, and plan the matching multi-bit injection campaign."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="full pipeline, all artifacts")
    sub.add_parser("parse", parents=[common], help="parse/validate, emit circuit.json")
    sub.add_parser("cones", parents=[common], help="emit cones.json and sites.json")
    sub.add_parser("sets", parents=[common], help="emit sets.json and sets.csv")
    sub.add_parser("propagate", parents=[common], help="emit patterns.json")
    rp = sub.add_parser("report", parents=[common], help="emit report.json and report.csv")
    rp.add_argument("--sfi-only", action="store_true", help="just the sample-size table")
    rp.add_argument("--population", type=int, help="population N for --sfi-only")
    return ap


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(config_from_file(args.config))
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            values[f.name] = _coerce(f.name, v)
    return replace(RunConfig(), **values)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns its exit code.

    The cyclic garbage collector is paused for the run and left as it was
    found.  The pipeline's structures hold no reference cycles, so a pass
    would free nothing, while the collector would otherwise walk the
    netlist, the sites and the sets hundreds of times, a run-time cost
    that grows with the design.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        cfg = _merge_config(args)
        cfg.validate()
        if args.command == "report":
            if args.sfi_only:
                if args.population is None:
                    log("--sfi-only requires --population")
                    return EXIT_PARSE
                return sfi_only(cfg, args.population)
            if not cfg.input:
                return report_from_artifacts(cfg)
            return run_pipeline(cfg, "report")
        return run_pipeline(cfg, args.command)
    except netlist.NetlistError as e:
        log(f"netlist error: {e}")
        return EXIT_PARSE
    except OSError as e:
        log(f"I/O error: {e}")
        return EXIT_IO
    except ValueError as e:
        log(f"error: {e}")
        return EXIT_PARSE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
