"""The names `benchmarks/` imports from caplearn and wraps with its tracer.

Importing the benchmark's modules checks every name it imports; installing
its tracer checks every name it patches. A renamed or deleted name fails
here, not only in a benchmark run.
"""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans
    import workloads  # noqa: F401 - importing it is the check

    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = [(owner, attr, original, getattr(owner, attr))
                   for owner, attr, original in tracer._patches]
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original, wrapper in patched:
        assert wrapper is not original, attr
        assert getattr(owner, attr) is original, attr
