"""Every episcore name the benchmark in ``bench/`` uses must resolve.

The benchmark imports the package and patches its traced layers by name,
so deleting or renaming one of those names breaks the benchmark and no
other test. The names are found by parsing the benchmark's sources, not
by running them.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _layers() -> list[str]:
    """The keys of ``LAYERS`` in ``bench/spans.py``: "<module>.<function>"."""
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]:
            return [key.value for key in node.value.keys]
    raise AssertionError("bench/spans.py defines no LAYERS dict")


def _dotted(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ["a", "b", "c"]; None for anything but a chain of names."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _used_names(path: Path) -> set[str]:
    """The dotted episcore names a bench source imports or reads: each name
    of a ``from episcore... import``, and each chain of attributes read on
    a name that an import binds to episcore or to one of its names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: dict[str, str] = {}  # local name -> dotted episcore name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "episcore":
            bound.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):  # ``import episcore.cli`` binds ``episcore``
            bound.update({a.asname or "episcore": a.name if a.asname else "episcore"
                          for a in node.names if a.name.split(".")[0] == "episcore"})
    used = set(bound.values())
    for node in ast.walk(tree):
        parts = _dotted(node) if isinstance(node, ast.Attribute) else None
        if parts and parts[0] in bound:
            used.add(".".join([bound[parts[0]], *parts[1:]]))
    return used


def _resolve(dotted: str) -> None:
    """Import the longest module prefix of ``dotted``, then look up the next
    name on it (attributes past that one are not checked); raises if either
    is missing."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, name in enumerate(parts[1:], start=1):
        try:
            obj = importlib.import_module(".".join(parts[: i + 1]))
        except ModuleNotFoundError:
            getattr(obj, name)  # the first attribute that is not a module
            return


BENCH_NAMES = sorted(
    {f"episcore.{layer}" for layer in _layers()} | set().union(*(_used_names(p) for p in sorted(BENCH.glob("*.py"))))
)


def test_the_benchmark_names_the_layers_and_functions_it_needs():
    # The names the benchmark must keep while it reads today's formats.
    assert {"episcore.pipeline.synth_config", "episcore.scorer.episode_input_matrix", "episcore.cli.main"} <= set(
        BENCH_NAMES
    )


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_each_name_the_benchmark_uses_resolves(name):
    _resolve(name)
