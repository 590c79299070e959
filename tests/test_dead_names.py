"""Every top-level function, class and constant of `src/fedlora` is named
somewhere besides its own definition: in `src/`, `tests/` or `perfbench/`.
A name counts as used when it appears as a whole word twice or more across
those Python files; dunder names are exempt."""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_top_level_name_is_used_besides_its_definition():
    sources = {path: path.read_text(encoding="utf-8")
               for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")}
    words = collections.Counter(re.findall(r"\w+", "\n".join(sources.values())))
    dead = [f"{path.name}: {name}"
            for path in sorted((ROOT / "src" / "fedlora").glob("*.py"))
            for name in top_level_names(ast.parse(sources[path]))
            if not (name.startswith("__") and name.endswith("__")) and words[name] < 2]
    assert dead == []
