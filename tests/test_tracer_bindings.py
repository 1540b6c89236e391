"""The benchmark's per-layer tracer (`perfbench/spans.py`) finds every
function it times, and leaves the package as it found it.

`Tracer.install` looks each name of `spans.LAYERS` up on its `lidarshape`
module, so renaming or removing one of those functions breaks the benchmark
without failing any other test."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import lidarshape.cli  # noqa: F401  (imports every layer module)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _bindings(names):
    """(module, name) -> object for every traced name on every lidarshape
    module that has it."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "lidarshape" or n.startswith("lidarshape."))]
    return {(m.__name__, n): getattr(m, n) for m in modules for n in names if hasattr(m, n)}


def test_every_traced_name_resolves_and_uninstall_restores_it(monkeypatch):
    spans = _load_spans(monkeypatch)
    names = set()
    for layer, layer_names in spans.LAYERS.items():
        home = importlib.import_module(f"lidarshape.{layer}")
        for name in layer_names:
            assert callable(getattr(home, name, None)), f"lidarshape.{layer}.{name}"
        names.update(layer_names)

    before = _bindings(names)
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _bindings(names)
        for layer, layer_names in spans.LAYERS.items():
            for name in layer_names:
                key = (f"lidarshape.{layer}", name)
                assert during[key] is not before[key], key  # wrapped at its home
                assert during[key].__wrapped__ is before[key], key
    finally:
        tracer.uninstall()
    after = _bindings(names)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _argument_reads(tree, function_name):
    """Names a counter function reads as `args["name"]`, where `args` is its
    second parameter."""
    fn = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function_name
    )
    bound = fn.args.args[1].arg
    return {
        node.slice.value
        for node in ast.walk(fn)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == bound
        and isinstance(node.slice, ast.Constant)
    }


def test_every_counter_reads_parameters_its_function_has(monkeypatch):
    # a counter binds the call's arguments by name, so renaming a parameter it
    # reads breaks only the traced run
    spans = _load_spans(monkeypatch)
    tree = ast.parse(SPANS.read_text())
    layer_of = {name: layer for layer, names in spans.LAYERS.items() for name in names}
    checked = 0
    for name, counter in spans.COUNTERS.items():
        home = importlib.import_module(f"lidarshape.{layer_of[name]}")
        params = inspect.signature(getattr(home, name)).parameters
        reads = _argument_reads(tree, counter.__name__)
        assert reads <= params.keys(), (name, sorted(reads - params.keys()))
        checked += len(reads)
    assert checked >= 8  # build_octree, hsd and exact_sd read 8 arguments between them
