"""The benchmark's tracer (bench/tracing.py) wraps package functions by the
module attribute names their callers use, so renaming or deleting one of
them breaks `bench/run.py --trace 1`.  This test catches that here."""

import os

import minshared.core as C

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")

MINIMAL = "mse 1\nmode undirected\nvertices 2\ns 0\nt 1\np 1\nk 0\nedge 0 1\n"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    original = C.parse_instance
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert C.parse_instance is not original
        C.parse_instance(MINIMAL)
    finally:
        tracer.uninstall()
    assert C.parse_instance is original
    assert [span[0] for span in tracer.spans] == ["core.parse"]
