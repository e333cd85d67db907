"""The benchmark's tracer (perfbench/tracing.py) wraps functions by name.

A refactor that renames or moves one of them would make the next traced
benchmark run refuse to start; this test makes tier-1 fail instead.
"""

from pathlib import Path

from traitlex import corpus, pdfmodel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (corpus.tokenize, corpus.derive_adjective_table, pdfmodel.aggregate)
    tracer = tracing.Tracer()
    tracer.install()  # raises tracing.BoundaryMissing naming any missing function
    try:
        assert corpus.tokenize is not originals[0]
    finally:
        tracer.uninstall()
    assert (corpus.tokenize, corpus.derive_adjective_table, pdfmodel.aggregate) == originals
