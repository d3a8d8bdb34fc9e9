"""The README's "Library layout" table names only attributes that exist."""

import importlib
import keyword
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def layout_rows():
    """(module name, backticked tokens of its contents cell) per table row."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not cells[0].startswith("`cwg."):
            continue
        rows.append((cells[0].strip("`"), re.findall(r"`([^`]*)`", cells[1])))
    return rows


def test_layout_table_is_found():
    modules = [module for module, _ in layout_rows()]
    assert "cwg.embedding" in modules and "cwg.search" in modules


def test_layout_names_resolve():
    missing = []
    for module_name, tokens in layout_rows():
        module = importlib.import_module(module_name)
        for token in tokens:
            if "/" in token or "(" in token or keyword.iskeyword(token):
                continue
            if not IDENTIFIER.fullmatch(token):
                continue
            obj = module
            for part in token.split("."):
                obj = getattr(obj, part, None)
                if obj is None:
                    missing.append("%s: %s" % (module_name, token))
                    break
    assert not missing, missing
