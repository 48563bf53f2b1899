import gc
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from set2seu import cli, ffsets, propagation
from set2seu.cli import EXIT_MISSING_STAGE, EXIT_OK, EXIT_PARSE, RunConfig, main, run_propagation
from set2seu.cones import enumerate_fault_sites
from set2seu.netlist import to_bench
from set2seu.random_circuits import corpus, make_random_circuit

DATA = Path(__file__).parent / "data"


def run_cli(args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(Path(path).read_text())


def strip_timestamp(text):
    return "\n".join(l for l in text.splitlines() if '"generated_at"' not in l)


def test_run_wire_pipeline(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["run", "--input", DATA / "wire.bench", "--out", out]) == EXIT_OK
    report = read_json(out / "report.json")
    assert report["methods"]["static"]["total_faults"] == "1"
    assert report["methods"]["propagated"]["total_faults"] == "1"
    assert report["methods"]["random"]["total_faults"] == "1"
    for name in ["cones.json", "sites.json", "sets.json", "patterns.json", "report.csv"]:
        assert (out / name).exists()


def test_cone_chain_sets_json_matches_cone_table(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", "--input", DATA / "cone_chain.bench", "--out", out]) == EXIT_OK
    cones = read_json(out / "sets.json")["cones"]
    assert cones == [
        {"cone": "A", "members": ["A", "B"], "multiplicity": 2},
        {"cone": "B", "members": ["A", "B", "C"], "multiplicity": 3},
        {"cone": "C", "members": ["B", "C", "D"], "multiplicity": 3},
        {"cone": "D", "members": ["C", "D"], "multiplicity": 2},
    ]


def test_sets_json_names_cone_sets_through_the_static_collection(tmp_path):
    """The `cones` rows name their sets with the static collection's encoded
    names: the cone collection encodes and picks no name of its own."""
    made = []
    collect = ffsets.collect_cone_sets

    def spy(c):
        made.append(collect(c))
        return made[-1]

    out = tmp_path / "out"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffsets, "collect_cone_sets", spy)
        assert run_cli(["sets", "--input", DATA / "cone_chain.bench", "--out", out]) == EXIT_OK
    (cone_sets,) = made
    assert not {"encoded_names", "member_names"} & vars(cone_sets).keys()
    assert [row["members"] for row in read_json(out / "sets.json")["cones"]] == [
        ["A", "B"], ["A", "B", "C"], ["B", "C", "D"], ["C", "D"]
    ]


@pytest.mark.parametrize("fixture", sorted(p.stem for p in DATA.glob("*.bench")))
def test_sets_json_raw_rows_point_at_their_set(tmp_path, fixture):
    out = tmp_path / "out"
    assert run_cli(["sets", "--input", DATA / f"{fixture}.bench", "--out", out]) == EXIT_OK
    data = read_json(out / "sets.json")
    assert data["raw"] and all(set(row) == {"site", "set"} for row in data["raw"])
    for row in data["raw"]:
        assert row["site"] in data["sets"][row["set"]]["sites"]
    for k, s in enumerate(data["sets"]):
        assert s["sites"] == [row["site"] for row in data["raw"] if row["set"] == k]


def test_two_runs_are_byte_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["run", "--input", DATA / "fanout_demo.bench", "--out", out]) == EXIT_OK
    for name in ["cones.json", "sites.json", "sets.json", "sets.csv", "patterns.json", "report.csv"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ra = strip_timestamp((a / "report.json").read_text())
    rb = strip_timestamp((b / "report.json").read_text())
    assert ra == rb


def test_stage_composition_equals_full_run(tmp_path):
    staged, full = tmp_path / "staged", tmp_path / "full"
    src = DATA / "divergent3.bench"
    for cmd in ["parse", "cones", "sets", "propagate", "report"]:
        assert run_cli([cmd, "--input", src, "--out", staged]) == EXIT_OK
    assert run_cli(["run", "--input", src, "--out", full]) == EXIT_OK
    for name in ["cones.json", "sites.json", "sets.json", "patterns.json", "report.csv"]:
        assert (staged / name).read_bytes() == (full / name).read_bytes()
    assert strip_timestamp((staged / "report.json").read_text()) == strip_timestamp(
        (full / "report.json").read_text()
    )


@pytest.mark.parametrize("fixture", ["divergent3", "b01ish", "fanout_demo", "cone_chain"])
def test_report_consumes_stage_artifacts(tmp_path, fixture):
    # b01ish, fanout_demo and cone_chain have sites whose patterns nest, so the
    # staged report must keep only each site's maximal patterns, as run does.
    out = tmp_path / "out"
    src = DATA / f"{fixture}.bench"
    for cmd in ["sets", "propagate"]:
        assert run_cli([cmd, "--input", src, "--out", out]) == EXIT_OK
    assert run_cli(["report", "--out", out]) == EXIT_OK
    fresh = tmp_path / "fresh"
    assert run_cli(["run", "--input", src, "--out", fresh]) == EXIT_OK
    assert strip_timestamp((out / "report.json").read_text()) == strip_timestamp(
        (fresh / "report.json").read_text()
    )
    assert (out / "report.csv").read_bytes() == (fresh / "report.csv").read_bytes()


def _swap_patterns(a, b):
    pa, pb = (a / "patterns.json").read_bytes(), (b / "patterns.json").read_bytes()
    (a / "patterns.json").write_bytes(pb)
    (b / "patterns.json").write_bytes(pa)
    return {out: ["patterns.json", "sets.json"] for out in (a, b)}


def _unknown_pattern_ff(a, b):
    path = b / "patterns.json"
    data = read_json(path)
    row = next(r for r in data["sites"] if r["patterns"])
    row["patterns"][0] = ["nosuchff"]
    path.write_text(json.dumps(data))
    return {b: ["patterns.json", f"'{row['site']}'", "nosuchff"]}


def _unknown_raw_ff(a, b):
    path = b / "sets.json"
    data = read_json(path)
    row = data["raw"][0]
    data["sets"][row["set"]]["members"] = ["nosuchff"]
    path.write_text(json.dumps(data))
    return {b: ["sets.json", f"'{row['site']}'", "nosuchff"]}


def _empty_pattern(a, b):
    path = b / "patterns.json"
    data = read_json(path)
    row = next(r for r in data["sites"] if r["patterns"])
    row["patterns"][0] = []
    path.write_text(json.dumps(data))
    return {b: ["patterns.json", f"'{row['site']}'", "empty"]}


def _empty_raw(a, b):
    path = b / "sets.json"
    data = read_json(path)
    row = data["raw"][0]
    data["sets"][row["set"]]["members"] = []
    path.write_text(json.dumps(data))
    return {b: ["sets.json", f"'{row['site']}'", "empty"]}


def _missing_key(a, b):
    path = b / "patterns.json"
    data = read_json(path)
    del data["sites"][0]["complete"]
    path.write_text(json.dumps(data))
    return {b: ["patterns.json", "'complete'"]}


def _inconsistent_flags(a, b):
    # complete and unknown together: no analysis yields this combination
    path = b / "patterns.json"
    data = read_json(path)
    row = data["sites"][0]
    row.update(complete=True, overflow=False, unknown=True)
    path.write_text(json.dumps(data))
    return {b: ["patterns.json", f"'{row['site']}'", "true/false/true"]}


def _pattern_outside_static_set(a, b):
    # divergent3: site a1 reaches only f1 statically
    path = a / "patterns.json"
    data = read_json(path)
    row = next(r for r in data["sites"] if r["site"] == "a1")
    row["patterns"] = [["f1", "f2", "f3"]]
    path.write_text(json.dumps(data))
    return {a: ["patterns.json", "'a1'", "'f2'", "outside its static set"]}


def _repeated_ff_name(a, b):
    path = b / "sets.json"
    data = read_json(path)
    data["ffs"][1] = data["ffs"][0]
    path.write_text(json.dumps(data))
    return {b: ["sets.json", f"'{data['ffs'][0]}' is listed twice"]}


# one-letter flip-flop names: a name list joined into one string reads, one
# character at a time, as the same names
SHORT_NAMES = """INPUT(x)
INPUT(y)
OUTPUT(a)
a = DFF(g1)
b = DFF(g2)
s = XOR(x, y)
g1 = AND(s, a)
g2 = OR(s, b)
"""


def _short_names_run(tmp, name):
    """Staged sets and propagate of SHORT_NAMES in directory `name` under `tmp`."""
    bench = tmp / "short.bench"
    bench.write_text(SHORT_NAMES)
    out = tmp / name
    for cmd in ("sets", "propagate"):
        assert run_cli([cmd, "--input", bench, "--out", out]) == EXIT_OK
    return out


def _string_name_list(a, b):
    """Each place that holds a list of flip-flop names, given its joined
    string instead, in a run of its own."""
    expected = {}

    def corrupt(name, file, edit, *texts):
        out = _short_names_run(a.parent, name)
        path = out / file
        data = read_json(path)
        edit(data)
        path.write_text(json.dumps(data))
        expected[out] = [file, *texts, "is not a list"]

    def ffs(data):
        data["ffs"] = "".join(data["ffs"])

    def raw_members(data):
        for row in data["sets"]:
            row["members"] = "".join(row["members"])

    def site_patterns(data):
        for row in data["sites"]:
            row["patterns"] = "".join(n for p in row["patterns"] for n in p)

    def each_pattern(data):
        for row in data["sites"]:
            row["patterns"] = ["".join(p) for p in row["patterns"]]

    first = read_json(_short_names_run(a.parent, "plain") / "patterns.json")["sites"]
    with_patterns = next(r["site"] for r in first if r["patterns"])
    corrupt("sets_ffs", "sets.json", ffs, "'ffs'")
    corrupt("raw_members", "sets.json", raw_members, f"'{first[0]['site']}'")
    corrupt("patterns_ffs", "patterns.json", ffs, "'ffs'")
    corrupt("site_patterns", "patterns.json", site_patterns, f"'{first[0]['site']}'")
    corrupt("each_pattern", "patterns.json", each_pattern, f"'{with_patterns}'")
    return expected


def _numeric_ff_names(a, b):
    """Every flip-flop name, in both files, replaced by a number."""
    out = _short_names_run(a.parent, "numeric")
    number = {"a": 1, "b": 2}
    sets, patterns = read_json(out / "sets.json"), read_json(out / "patterns.json")
    for data in (sets, patterns):
        data["ffs"] = [number[n] for n in data["ffs"]]
    for row in sets["sets"]:
        row["members"] = [number[n] for n in row["members"]]
    for row in patterns["sites"]:
        row["patterns"] = [[number[n] for n in p] for p in row["patterns"]]
    (out / "sets.json").write_text(json.dumps(sets))
    (out / "patterns.json").write_text(json.dumps(patterns))
    return {out: ["sets.json", "'ffs'", "not a string"]}


def _repeated_site(a, b):
    """A second row for site g1, with no patterns, in both files."""
    out = _short_names_run(a.parent, "short")
    sets, patterns = read_json(out / "sets.json"), read_json(out / "patterns.json")
    sets["raw"].append(next(r for r in sets["raw"] if r["site"] == "g1"))
    row = next(r for r in patterns["sites"] if r["site"] == "g1")
    patterns["sites"].append({**row, "patterns": []})
    (out / "sets.json").write_text(json.dumps(sets))
    (out / "patterns.json").write_text(json.dumps(patterns))
    return {out: ["sets.json", "'g1'", "listed twice"]}


def _repeated_pattern(a, b):
    """Site x of divergent.bench lists its pattern {f1} a second time, once
    as it was and once with the name repeated, a run each.  The repeated
    name is refused before the pattern can repeat {f1}."""
    expected = {}
    for name, again, text in (
        ("again", ["f1"], "site 'x' pattern 'f1' is listed twice"),
        ("doubled", ["f1", "f1"], "a pattern of site 'x' lists flip-flop 'f1' twice"),
    ):
        out = a.parent / name
        for cmd in ("sets", "propagate"):
            assert run_cli([cmd, "--input", DATA / "divergent.bench", "--out", out]) == EXIT_OK
        path = out / "patterns.json"
        data = read_json(path)
        row = next(r for r in data["sites"] if r["site"] == "x")
        assert ["f1"] in row["patterns"]
        row["patterns"].append(again)
        path.write_text(json.dumps(data))
        expected[out] = ["patterns.json", text]
    return expected


def _repeated_pattern_member(a, b):
    """Site line1 of b01ish lists s0 twice in its first pattern."""
    path = b / "patterns.json"
    data = read_json(path)
    row = next(r for r in data["sites"] if r["site"] == "line1")
    assert row["patterns"][0] == ["s0"]
    row["patterns"][0] = ["s0", "s0"]
    path.write_text(json.dumps(data))
    return {b: ["patterns.json", "a pattern of site 'line1' lists flip-flop 's0' twice"]}


def _edited_sets(src, name, edit):
    """A copy of run directory `src`, named `name`, whose sets.json `edit` changed."""
    out = src.parent / name
    shutil.copytree(src, out)
    data = read_json(out / "sets.json")
    edit(data)
    (out / "sets.json").write_text(json.dumps(data))
    return out


def _old_sets_layout(a, b):
    """Each raw row repeats its set's members instead of pointing at it."""

    def old(data):
        for row in data["raw"]:
            row["members"] = data["sets"][row.pop("set")]["members"]

    site = read_json(b / "sets.json")["raw"][0]["site"]
    out = _edited_sets(b, "old_layout", old)
    return {out: ["sets.json", f"'{site}'", "members instead of a set index"]}


def _bad_set_index(a, b):
    """The first raw row's set index replaced by a value that is not one, a run each."""
    data = read_json(b / "sets.json")
    site = data["raw"][0]["site"]
    expected = {}
    for i, k in enumerate([True, -1, "0", len(data["sets"])]):
        out = _edited_sets(b, f"index{i}", lambda d: d["raw"][0].update(set=k))
        expected[out] = ["sets.json", f"'{site}'", json.dumps(k), "not an index into 'sets'"]
    return expected


def _set_sites_mismatch(a, b):
    """A set's `sites` that differ from the raw rows that point at it: one
    site dropped from its set, one raw row pointing at another set, or a
    set that no raw row points at, with null `sites`."""

    def dropped(data):
        data["sets"][data["raw"][0]["set"]]["sites"].pop()

    def moved(data):
        row = data["raw"][0]
        row["set"] = (row["set"] + 1) % len(data["sets"])

    def unused(data):
        data["sets"].append({"members": ["s0"], "multiplicity": 1, "sites": None})

    return {
        _edited_sets(b, name, edit): ["sets.json", "sites of set", "raw rows that point at it"]
        for name, edit in (("dropped", dropped), ("moved", moved), ("unused", unused))
    }


def _repeated_set_member(a, b):
    """The last set of b01ish, which holds s0, lists s0 a second time."""
    out = _edited_sets(b, "repeated_member", lambda d: d["sets"][-1]["members"].append("s0"))
    last = len(read_json(b / "sets.json")["sets"]) - 1
    return {out: ["sets.json", f"set {last} lists flip-flop 's0' twice"]}


def _wrong_counts(a, b):
    """A count in sets.json that the rows do not give: the last set's
    multiplicity, or one of the summary counts, a run each."""
    data = read_json(b / "sets.json")
    last = len(data["sets"]) - 1
    size = data["sets"][-1]["multiplicity"]
    cases = [
        ("multiplicity", lambda d: d["sets"][-1].update(multiplicity=99),
         f"multiplicity of set {last} is 99, but the rows give {size}"),
        ("multiplicity_text", lambda d: d["sets"][-1].update(multiplicity=str(size)),
         f'multiplicity of set {last} is "{size}"'),
        ("num_sets", lambda d: d.update(num_sets=12345),
         f"'num_sets' is 12345, but the rows give {data['num_sets']}"),
        ("num_superset", lambda d: d.update(num_superset=12345),
         f"'num_superset' is 12345, but the rows give {data['num_superset']}"),
        ("max_multiplicity", lambda d: d.update(max_multiplicity=77),
         f"'max_multiplicity' is 77, but the rows give {data['max_multiplicity']}"),
    ]
    return {_edited_sets(b, name, edit): ["sets.json", text] for name, edit, text in cases}


@pytest.mark.parametrize(
    "corrupt",
    [
        _swap_patterns,
        _unknown_pattern_ff,
        _unknown_raw_ff,
        _empty_pattern,
        _empty_raw,
        _missing_key,
        _inconsistent_flags,
        _pattern_outside_static_set,
        _repeated_ff_name,
        _string_name_list,
        _repeated_site,
        _repeated_pattern,
        _numeric_ff_names,
        _old_sets_layout,
        _bad_set_index,
        _set_sites_mismatch,
        _repeated_set_member,
        _repeated_pattern_member,
        _wrong_counts,
    ],
    ids=[
        "swapped",
        "unknown_pattern_ff",
        "unknown_raw_ff",
        "empty_pattern",
        "empty_raw",
        "missing_key",
        "inconsistent_flags",
        "pattern_outside_static_set",
        "repeated_ff_name",
        "string_name_list",
        "repeated_site",
        "repeated_pattern",
        "numeric_ff_names",
        "old_sets_layout",
        "bad_set_index",
        "set_sites_mismatch",
        "repeated_set_member",
        "repeated_pattern_member",
        "wrong_counts",
    ],
)
def test_report_rejects_mismatched_artifacts(tmp_path, corrupt):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, fixture in ((a, "divergent3"), (b, "b01ish")):
        assert run_cli(["propagate", "--input", DATA / f"{fixture}.bench", "--out", out]) == EXIT_OK
        assert run_cli(["sets", "--input", DATA / f"{fixture}.bench", "--out", out]) == EXIT_OK
    for out, expected in corrupt(a, b).items():
        proc = subprocess.run(
            [sys.executable, "-m", "set2seu", "report", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_PARSE
        assert "Traceback" not in proc.stderr
        for text in expected:
            assert text in proc.stderr
        assert not (out / "report.json").exists()


def test_staged_report_logs_totals_and_warning_like_run(tmp_path, capsys):
    # corpus[30] of the acceptance corpus: Eq-1 grows from 46 to 76 there.
    src = tmp_path / "corpus30.bench"
    src.write_text(to_bench(corpus(12345, 200, max_gates=40, max_ffs=8, max_pis=6)[30]))
    summary = "report: static 46 -> propagated 76 (random 63)"
    warning = "warning: propagated total exceeds static total"
    assert run_cli(["run", "--input", src, "--out", tmp_path / "full"]) == EXIT_OK
    run_err = capsys.readouterr().err
    assert summary in run_err and warning in run_err
    out = tmp_path / "staged"
    for cmd in ["sets", "propagate"]:
        assert run_cli([cmd, "--input", src, "--out", out]) == EXIT_OK
    capsys.readouterr()
    assert run_cli(["report", "--out", out]) == EXIT_OK
    err = capsys.readouterr().err
    assert summary in err and warning in err


def test_missing_upstream_artifact_exit_4(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    assert run_cli(["report", "--out", out]) == EXIT_MISSING_STAGE


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(a)\ng = AND(a, zz)\n")
    assert run_cli(["parse", "--input", bad, "--out", tmp_path / "o"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 2" in err


@pytest.fixture
def collector():
    """Restore the cyclic collector's state after a test that changes it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


def _raise_runtime_error(*args):
    raise RuntimeError("escapes main")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", ["ok", "netlist error", "exception"])
def test_main_leaves_the_collector_as_found(tmp_path, monkeypatch, collector, enabled, outcome):
    bench = DATA / "b01ish.bench"
    if outcome == "netlist error":
        bench = tmp_path / "bad.bench"
        bench.write_text("INPUT(a)\ng = AND(a, zz)\n")
    if outcome == "exception":
        monkeypatch.setattr(cli, "run_pipeline", _raise_runtime_error)
    (gc.enable if enabled else gc.disable)()
    args = ["sets", "--input", bench, "--out", tmp_path / "o"]
    if outcome == "exception":
        with pytest.raises(RuntimeError, match="escapes main"):
            run_cli(args)
    else:
        assert run_cli(args) == (EXIT_OK if outcome == "ok" else EXIT_PARSE)
    assert gc.isenabled() is enabled


def test_run_leaves_no_cyclic_garbage_that_grows_with_the_design(tmp_path, collector):
    """The collector is paused during a run, so a structure with a reference
    cycle would stay in memory until the next collection; what a run leaves
    must not grow from b01ish (5 flip-flops) to wide50 (50)."""
    wide50 = tmp_path / "wide50.bench"
    wide50.write_text(to_bench(make_random_circuit(7, n_pis=10, n_ffs=50, n_gates=500, n_pos=10)))
    gc.disable()
    run_cli(["run", "--input", DATA / "b01ish.bench", "--out", tmp_path / "warm"])
    gc.collect()
    left = {}
    for name, bench in (("b01ish", DATA / "b01ish.bench"), ("wide50", wide50)):
        assert run_cli(["run", "--input", bench, "--out", tmp_path / name]) == EXIT_OK
        left[name] = gc.collect()
    assert left["wide50"] <= left["b01ish"] * 1.1


def test_json_netlist_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "nets": [{"id": 0, "name": "a"}, {"id": 1, "name": "y"}],
                "gates": [{"id": 0, "kind": "NOT", "inputs": [7], "output": 1}],
                "ffs": [],
                "inputs": [0],
                "outputs": [1],
            }
        )
    )
    cmd = ["parse", "--input", str(bad), "--out", str(tmp_path / "o")]
    proc = subprocess.run(
        [sys.executable, "-m", "set2seu", *cmd], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_PARSE
    assert "netlist error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_json_duplicate_ff_name_exit_2(tmp_path, capsys):
    # two flip-flops named f: reports would merge them by name
    bad = tmp_path / "dup.json"
    bad.write_text(
        json.dumps(
            {
                "nets": [{"id": i, "name": n} for i, n in enumerate(["a", "b", "g", "q0", "q1"])],
                "gates": [{"id": 0, "kind": "AND", "inputs": [0, 1], "output": 2}],
                "ffs": [
                    {"id": 0, "name": "f", "d": 2, "q": 3},
                    {"id": 1, "name": "f", "d": 2, "q": 4},
                ],
                "inputs": [0, 1],
                "outputs": [3, 4],
            }
        )
    )
    assert run_cli(["run", "--input", bad, "--out", tmp_path / "o"]) == EXIT_PARSE
    assert "netlist error: duplicate flip-flop name 'f'" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


def test_json_ff_name_with_comma_and_space_exit_2(tmp_path, capsys):
    # sets.csv would read the row "q,x y,1,g" as two flip-flops, q,x and y
    bad = tmp_path / "comma.json"
    bad.write_text(
        json.dumps(
            {
                "nets": [{"id": i, "name": n} for i, n in enumerate(["a", "b", "g", "q"])],
                "gates": [{"id": 0, "kind": "AND", "inputs": [0, 1], "output": 2}],
                "ffs": [{"id": 0, "name": "q,x y", "d": 2, "q": 3}],
                "inputs": [0, 1],
                "outputs": [3],
            }
        )
    )
    assert run_cli(["run", "--input", bad, "--out", tmp_path / "o"]) == EXIT_PARSE
    assert "netlist error: flip-flop name 'q,x y' cannot be written" in capsys.readouterr().err
    assert not (tmp_path / "o" / "sets.csv").exists()


def test_missing_input_exit_3(tmp_path):
    rc = run_cli(["run", "--input", tmp_path / "nope.bench", "--out", tmp_path / "o"])
    assert rc == 3


def test_sfi_only_population(capsys):
    assert run_cli(["report", "--sfi-only", "--population", 4140]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    plans = {p["margin"]: p["n"] for p in data["plans"]}
    assert plans[0.05] == 352
    assert plans[0.01] == 2893
    assert plans[0.001] == 4122


def test_sfi_only_requires_population(capsys):
    assert run_cli(["report", "--sfi-only"]) == EXIT_PARSE


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# pipeline settings\n"
        f"input = {DATA / 'divergent.bench'}\n"
        "margins = 0.05, 0.01\n"
        "confidence = 95\n"
        "pattern-cap = 16\n"
    )
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out, "--margins", "0.05"]) == EXIT_OK
    report = read_json(out / "report.json")
    assert report["config"]["margins"] == [0.05]
    assert report["config"]["pattern_cap"] == 16


def test_bad_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = 3\n")
    assert run_cli(["run", "--config", cfg]) == EXIT_PARSE


@pytest.mark.parametrize(
    "line, setting", [("pattern-cap = abc", "pattern_cap"), ("verbose = tru", "verbose")]
)
def test_bad_config_value_names_setting_file_and_line(tmp_path, capsys, line, setting):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {DATA / 'wire.bench'}\n{line}\n")
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"{cfg}:2:" in err and setting in err and line.split(" = ")[1] in err


@pytest.mark.parametrize(
    "flag, value, setting",
    [
        pytest.param("--conflict-cap", "-1", "conflict_cap", id="negative_conflict_cap"),
        pytest.param("--margins", "", "margins", id="empty_margins"),
        pytest.param("--confidence", "95.0000001", "confidence", id="near_known_confidence"),
    ],
)
def test_out_of_range_flag_value_names_setting(tmp_path, capsys, flag, value, setting):
    args = ["run", "--input", DATA / "wire.bench", "--out", tmp_path / "o", flag, value]
    assert run_cli(args) == EXIT_PARSE
    assert setting in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    "margins, label",
    [("0.05,0.05", "0.05"), ("0.05,0.050", "0.05"), ("0.1234561,0.1234564", "0.123456")],
)
def test_margins_with_the_same_report_column_are_refused(tmp_path, capsys, via, margins, label):
    """Two margins that print alike would give report.csv two n(label)
    columns and report.json repeated plan rows."""
    args = ["run", "--input", DATA / "wire.bench", "--out", tmp_path / "o"]
    if via == "flag":
        args += ["--margins", margins]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"margins = {margins}\n")
        args += ["--config", cfg]
    assert run_cli(args) == EXIT_PARSE
    err = capsys.readouterr().err
    first, second = (float(m) for m in margins.split(","))
    assert f"margins {first} and {second}" in err and f"n({label})" in err
    assert not (tmp_path / "o").exists()


def test_zero_conflict_cap_is_valid(tmp_path):
    args = ["run", "--input", DATA / "wire.bench", "--out", tmp_path / "o", "--conflict-cap", "0"]
    assert run_cli(args) == EXIT_OK


def test_bad_flag_value_names_setting(tmp_path, capsys):
    args = ["run", "--input", DATA / "wire.bench", "--out", tmp_path / "o", "--margins", "0.05,x"]
    assert run_cli(args) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "margins" in err and "0.05,x" in err
    assert "could not convert" not in err


def test_json_circuit_input_equivalent(tmp_path):
    bench_out = tmp_path / "bench"
    assert run_cli(["parse", "--input", DATA / "divergent3.bench", "--out", bench_out]) == EXIT_OK
    json_in = bench_out / "circuit.json"
    json_run = tmp_path / "fromjson"
    bench_run = tmp_path / "frombench"
    assert run_cli(["run", "--input", json_in, "--out", json_run]) == EXIT_OK
    assert run_cli(["run", "--input", DATA / "divergent3.bench", "--out", bench_run]) == EXIT_OK
    assert (json_run / "sets.json").read_bytes() == (bench_run / "sets.json").read_bytes()
    assert (json_run / "patterns.json").read_bytes() == (bench_run / "patterns.json").read_bytes()


def test_exclude_flag_removes_sites(tmp_path):
    out = tmp_path / "out"
    assert run_cli(
        ["cones", "--input", DATA / "cone_chain.bench", "--out", out, "--exclude", "x12,pa"]
    ) == EXIT_OK
    sites = read_json(out / "sites.json")
    names = {s["site_net"] for s in sites}
    assert "x12" not in names
    for s in sites:
        assert "x12" not in s["represented_nets"]
        assert "pa" not in s["represented_nets"]


def test_jobs_flag_stable_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["propagate", "--input", DATA / "divergent3.bench", "--out", a, "--jobs", 1]) == EXIT_OK
    assert run_cli(["propagate", "--input", DATA / "divergent3.bench", "--out", b, "--jobs", 2]) == EXIT_OK
    assert (a / "patterns.json").read_bytes() == (b / "patterns.json").read_bytes()


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "set2seu", "report", "--sfi-only", "--population", "511"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert {p["margin"]: p["n"] for p in data["plans"]}[0.05] == 220


def test_cli_import_does_not_load_numpy():
    code = "import sys, set2seu.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_export_cnf_writes_dimacs_per_site(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        ["propagate", "--input", DATA / "divergent.bench", "--out", out, "--export-cnf"]
    )
    assert rc == EXIT_OK
    files = sorted((out / "cnf").glob("site_*.cnf"))
    assert len(files) == 4
    text = files[0].read_text()
    assert text.splitlines()[0].startswith("c miter for SET site")
    assert any(line.startswith("p cnf ") for line in text.splitlines())


def test_export_cnf_builds_each_region_once(tmp_path):
    """One region build per flip-flop set for the analysis (each distinct
    `static_ffs` and the flip-flops of each shared sweep) and one per
    distinct `static_ffs` for the export, and the DIMACS text of a per-site
    export."""
    c = make_random_circuit(1, n_pis=6, n_ffs=24, n_gates=90, n_pos=2)
    sites = enumerate_fault_sites(c)
    work = [s for s in sites if s.static_ffs]
    regions = {s.static_ffs for s in work}
    assert len(regions) < len(work)
    analysed = regions | {r.static_ffs for r, _ in propagation._work_units(c, work)}
    built = []
    build = propagation.build_region

    def counting(circ, ffs):
        built.append(ffs)
        return build(circ, ffs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagation, "build_region", counting)
        run_propagation(RunConfig(out=str(tmp_path), export_cnf=True), c, sites)
    assert sorted(built) == sorted([*analysed, *regions])
    for s in work:
        written = (tmp_path / "cnf" / f"site_{s.site_net}.cnf").read_text()
        assert written == propagation.export_site_cnf(c, s)


class _Str(str):
    pass


class _List(list):
    pass


@pytest.mark.parametrize(
    "value",
    [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {"b": {}}],
        (), (1, "a"), ("a", "b"), [("x",), ()],
        "", "\u00e9\u4e2d\U0001f600", "\x00\x1f\n\t\"\\/\x7f", ["\u2028", "a\x01"],
        True, False, None, [True, False, None], {"t": True, "n": None},
        {1: "a", "b": 2}, {"k": {2: [3]}}, {None: 1, True: 2, 1.5: 3},
        0.1, [0.1, 1e300, -0.0, float("inf"), float("-inf"), float("nan")], {"x": [1, 2.5]},
        _Str("sub"), [_Str("a"), "b"], {"k": _Str("v")}, _List([1, "a"]), {"k": _List(["a", "b"])},
        ["a", 1], ["a", ["b", "c"]], [0, -7, 10**40],
        {"a": [{"b": {1: [2]}}]}, [[["x", 1.5], {}], [[]]], {"a": {"b": {"c": [{"d": (1,)}]}}},
        [[[{"k": _Str("v"), "l": _List([None])}]]], [{"a": [[{}], {"b": [True]}]}],
    ],
)
def test_write_json_matches_json_dump(tmp_path, value):
    path = tmp_path / "v.json"
    cli._write_json(path, value)
    assert path.read_text() == json.dumps(value, indent=2) + "\n"


def _names(*ids):
    """The names of flip-flops `ids` among three, two of which JSON escapes."""
    return ffsets.MemberNames(ids, ffsets.SetCollection(("a", 'q"\\', "\u00e9"), ()))


@pytest.mark.parametrize(
    "value",
    [
        [{"site": "a", "set": 0}, {"site": "b\n", "set": 10**40}],
        ({"t": True, "f": False, "n": None, "s": _Str("x")},),
        {"k": [1, "a", True, None], "e": [], "d": {}},
        [{"a": ["x"], "b": [1.5]}, {"a": ["x"], "b": {"c": 1}}, {"a": "x", 2: "y"}],
        [["a"], ["b", "c"], [1, [2]], (3,)],
        [_names(0, 1, 2), _names(1), _names()],
        {"cones": [{"cone": "a", "members": _names(0, 2), "multiplicity": 2}]},
        {"a": [{"b": {"c": _names(2, 0)}, "d": [_names(1), _names()]}]},
        [[[_names(0, 1, 2), {"e": _names(2)}]], [{"f": [[_names(1)]]}]],
        [{"g": {1: _names(0)}, "h": [{2: "x"}, 0.5]}],
    ],
)
def test_write_json_rows_match_json_dump(tmp_path, value):
    path = tmp_path / "v.json"
    cli._write_json(path, value)
    assert path.read_text() == json.dumps(value, indent=2) + "\n"


def test_member_names_are_the_names_picked_by_id():
    assert _names(0, 2) == ["a", "\u00e9"] and _names(1) == ['q"\\'] and _names() == []
    assert json.loads(json.dumps(_names(2, 1))) == ["\u00e9", 'q"\\']


@pytest.mark.parametrize("bench", sorted(p.name for p in DATA.glob("*.bench")))
def test_json_artifacts_match_json_dump(tmp_path, bench):
    written = []
    write = cli._write_json

    def checking(path, obj):
        write(path, obj)
        assert path.read_text() == json.dumps(obj, indent=2) + "\n", path.name
        written.append(path.name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_write_json", checking)
        assert run_cli(["run", "--input", DATA / bench, "--out", tmp_path]) == EXIT_OK
    assert written == ["cones.json", "sites.json", "sets.json", "patterns.json", "report.json"]


# Names that JSON must escape: quotes, backslashes, a control character and
# characters outside ASCII, one of them outside the Basic Multilingual Plane.
# Flip-flop t\😀" is a one-member set and a one-flip-flop cone.
ESCAPED_NAMES_BENCH = (
    'INPUT(a"1)\nINPUT(b\\\\x)\nINPUT(\u00e9"\\)\nOUTPUT(y\\)\n'
    'n"1 = AND(a"1, b\\\\x)\nq\u00e9 = DFF(n"1)\nm\\2 = OR(n"1, q\u00e9)\n'
    'r"\\\\ = DFF(m\\2)\ny\\ = XOR(m\\2, r"\\\\)\n'
    'd"\x01 = NOT(\u00e9"\\)\nt\\\U0001f600" = DFF(d"\x01)\n'
)


def test_names_that_need_json_escaping(tmp_path):
    src = tmp_path / "escaped.bench"
    src.write_text(ESCAPED_NAMES_BENCH)
    out = tmp_path / "out"
    assert run_cli(["run", "--input", src, "--out", out]) == EXIT_OK
    for name in ("cones.json", "sites.json", "sets.json", "patterns.json", "report.json"):
        text = (out / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", name
    sets = read_json(out / "sets.json")
    single = 't\\\U0001f600"'
    assert sets["ffs"] == ["q\u00e9", 'r"\\\\', single]
    assert sets["cones"][2] == {"cone": single, "members": [single], "multiplicity": 1}
    assert [r["members"] for r in sets["sets"]] == [['r"\\\\'], [single], ["q\u00e9", 'r"\\\\']]
    assert (out / "sets.csv").read_text() == (
        "members,multiplicity,sites\n"
        'r"\\\\,1,m\\2\n'
        't\\\U0001f600",1,d"\x01\n'
        'q\u00e9 r"\\\\,2,n"1\n'
    )
    report = (out / "report.csv").read_text()
    assert run_cli(["report", "--out", out]) == EXIT_OK
    assert (out / "report.csv").read_text() == report


def test_all_nets_mode_runs(tmp_path):
    out_all = tmp_path / "all"
    out_c = tmp_path / "collapsed"
    src = DATA / "divergent.bench"
    assert run_cli(["run", "--input", src, "--out", out_all, "--mode", "all_nets"]) == EXIT_OK
    assert run_cli(["run", "--input", src, "--out", out_c]) == EXIT_OK
    all_sites = read_json(out_all / "sites.json")
    collapsed = read_json(out_c / "sites.json")
    assert len(all_sites) >= len(collapsed)
    assert {s["site_net"] for s in collapsed} <= {s["site_net"] for s in all_sites}


@pytest.mark.parametrize("jobs", [1, 2])
def test_verbose_per_site_timing_on_stderr(tmp_path, capsys, jobs):
    out, quiet = tmp_path / "out", tmp_path / "quiet"
    src = DATA / "divergent3.bench"
    assert run_cli(["propagate", "--input", src, "--out", out, "--jobs", jobs, "--verbose"]) == EXIT_OK
    err = capsys.readouterr().err
    assert run_cli(["propagate", "--input", src, "--out", quiet, "--jobs", jobs]) == EXIT_OK
    analysed = [row["site"] for row in read_json(out / "patterns.json")["sites"]]
    line = r"^\[set2seu\]\s+site (\S+): \d+ patterns.* by (\w+) in \d+\.\d{3}s, (\d+) solves$"
    logged = re.findall(line, err, re.M)
    assert analysed and sorted(name for name, _, _ in logged) == sorted(analysed)
    # every divergent3 support is far below the limit, so no site calls the solver
    assert {(engine, solves) for _, engine, solves in logged} == {("sim", "0")}
    assert (out / "patterns.json").read_bytes() == (quiet / "patterns.json").read_bytes()


def test_overflow_flag_keeps_exit_zero(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        ["run", "--input", DATA / "fanout_demo.bench", "--out", out, "--pattern-cap", "2"]
    )
    assert rc == EXIT_OK
    pats = read_json(out / "patterns.json")
    assert any(s["overflow"] for s in pats["sites"])
    report = read_json(out / "report.json")
    assert report["overflow_sites"] >= 1
