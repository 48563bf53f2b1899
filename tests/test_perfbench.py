import importlib
import re
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_every_traced_name_exists():
    """The benchmark's tracer wraps each `module.attr` of its hook table,
    looked up by name, so a renamed or removed function would crash only
    the traced benchmark runs.  The file is read as text, not imported."""
    text = CHILD.read_text()
    table = text[text.index("hooks = {"):]
    table = table[: table.index("\n        }\n")]
    names = re.findall(r'^\s+"(\w+)\.(\w+)":', table, re.M)
    assert len(names) > 20
    missing = [
        f"{mod}.{attr}"
        for mod, attr in names
        if not hasattr(importlib.import_module(f"set2seu.{mod}"), attr)
    ]
    assert not missing
