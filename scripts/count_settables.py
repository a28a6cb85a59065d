#!/usr/bin/env python3
"""Count a package's lines and the values its callers can set.

    python3 scripts/count_settables.py [PACKAGE_DIR]

Parses every ``*.py`` file directly in PACKAGE_DIR (default ``src/semimo``)
and prints one ``name count`` line each for:

- ``modules``: the ``*.py`` files walked;
- ``lines``: the lines of all the files together;
- ``parameters``: the parameters of every ``def``, without ``self``, ``cls``
  and ``*``/``**`` parameters (lambdas are not counted);
- ``defaults``: those of the parameters that have a default;
- ``dataclass_fields``: the annotated fields of every ``@dataclass`` class;
- ``config_keys``: the fields of ``ExperimentConfig``, one per config key;
- ``constants``: the targets of module-level assignments whose name is
  UPPER_CASE, private ones (a leading underscore) included.

Nothing is imported, so the walk counts any checkout, a parent's included.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def count(package_dir) -> dict[str, int]:
    counts = dict.fromkeys(
        ("modules", "lines", "parameters", "defaults", "dataclass_fields", "config_keys",
         "constants"), 0
    )
    for path in sorted(Path(package_dir).glob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts["modules"] += 1
        counts["lines"] += len(text.splitlines())
        tree = ast.parse(text, filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                counts["constants"] += sum(
                    isinstance(name, ast.Name) and name.id.isupper()
                    for target in targets for name in ast.walk(target)
                )
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                named = args.posonlyargs + args.args + args.kwonlyargs
                counts["parameters"] += sum(a.arg not in ("self", "cls") for a in named)
                counts["defaults"] += len(args.defaults)
                counts["defaults"] += sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = sum(isinstance(item, ast.AnnAssign) for item in node.body)
                counts["dataclass_fields"] += fields
                if node.name == "ExperimentConfig":
                    counts["config_keys"] += fields
    return counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package_dir = Path(argv[0]) if argv else ROOT / "src" / "semimo"
    for name, value in count(package_dir).items():
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
