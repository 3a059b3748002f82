"""The benchmark's tracer (bench/tracer.py) wraps package functions that it
looks up by name; each of those names must still resolve, or only a
benchmark run would notice a rename."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [
        (modname, name)
        for table in (tracer.SPANS, tracer.AGGREGATES)
        for modname, names in table.items()
        for name in names
    ]
    assert len(names) > 10
    for modname, name in [*names, ("families", "transform_family")]:
        module = importlib.import_module(f"rayspace.{modname}")
        assert callable(getattr(module, name, None)), f"rayspace.{modname}.{name}"
