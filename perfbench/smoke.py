"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 perfbench/smoke.py

It runs every workload for a few rounds, untraced and traced, and checks
that every output check passes and every metric is reported.  Then it
corrupts the program's output in several ways and checks that the output
checks catch each one, that the tracer refuses a boundary that does not
exist, and that the benchmark refuses to run without the program sources.
It exits non-zero on the first failure.
"""

import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run

run._bootstrap()
import tracing  # noqa: E402
import workloads  # noqa: E402
from session import Session  # noqa: E402
from traitlex import commonsense, evaluation, pdfmodel  # noqa: E402

TINY = {
    "trait-build": lambda: workloads.TraitBuild(n_texts=50, min_word_freq=5),
    "trait-score": lambda: workloads.TraitScore(n_train=500, n_eval=60, singles=10,
                                                min_word_freq=15),
    "survey-sweep": lambda: workloads.SurveySweep(n_respondents=80, k=3, trees=3, requests=4),
}
SEED = 5
_runs = itertools.count()


def run_tiny(name, work, traced):
    workload = TINY[name]()
    tracer = tracing.Tracer() if traced else None
    with Session() as session:
        state, setups = run._set_up(workload, SEED, work / f"{name}-{next(_runs)}", session)
        workload.round(state, session, "warmup")
        rounds, walls = run._measure(workload, state, session, 0, tracer)
    session.scale()
    return session, rounds, walls, setups, tracer


def check_workload(name, work):
    session, rounds, walls, setups, _ = run_tiny(name, work, traced=False)
    assert session.failed == 0, session.problems
    metrics = run._end_to_end(rounds[False], setups)
    assert [m for m in metrics] == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    session, rounds, walls, _, tracer = run_tiny(name, work, traced=True)
    assert session.failed == 0, session.problems
    layers = tracer.layer_metrics(len(rounds[True]), 0.0, {})
    assert set(layers) == {n for n, _ in tracing.LAYER_METRICS}
    assert tracer.spans and all(end is not None for _, _, end, _, _ in tracer.spans)
    print(f"ok  {name}: {session.attempted} operations, {len(tracer.spans)} spans")


def expect_failure(label, name, work, owner, attr, make_bad):
    original = getattr(owner, attr)
    setattr(owner, attr, make_bad(original))
    try:
        session, *_ = run_tiny(name, work, traced=False)
    finally:
        setattr(owner, attr, original)
    assert session.failed > 0, f"{label}: the output checks did not notice"
    print(f"ok  {label}: caught ({session.problems[0][:90]})")


def reversed_column(field):
    """Corrupt pdf-eval's records by reversing one column across them."""
    def corrupt(original):
        def evaluate(model, store, **kwargs):
            result = original(model, store, **kwargs)
            values = [getattr(r, field) for r in result.records][::-1]
            records = tuple(replace(r, **{field: v}) for r, v in zip(result.records, values))
            return replace(result, records=records)
        return evaluate
    return corrupt


def raised_word_cut(original):
    def build(store, trait, **kwargs):
        kwargs["min_word_freq"] *= 2
        return original(store, trait, **kwargs)
    return build


def constant_answers(original):
    def predict(bank, response):
        return {qid: "option_0" for qid in original(bank, response)}
    return predict


def dropped_question(original):
    def predict(bank, response):
        answers = original(bank, response)
        answers.pop(sorted(answers)[0])
        return answers
    return predict


def check_missing_boundary():
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.BOUNDARIES + (("traitlex.pdfmodel", "no_such_function",
                                              "pdfmodel.gone", None),))
    except tracing.BoundaryMissing as e:
        assert "traitlex.pdfmodel.no_such_function" in str(e)
        assert not tracer._patches, "install wrapped boundaries before failing"
        print("ok  missing boundary: refused")
        return
    raise AssertionError("a missing boundary was not reported")


def check_without_sources(work):
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "trait-build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0, "ran without the program sources"
    assert not proc.stdout.strip(), f"printed a result: {proc.stdout[-200:]}"
    print(f"ok  without sources: exit {proc.returncode}, {proc.stderr.strip()}")


def main():
    work = run.OUT / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name in TINY:
            check_workload(name, work)
        expect_failure("shuffled truths", "trait-score", work,
                       evaluation, "evaluate_pdf_model", reversed_column("truth"))
        expect_failure("shuffled labels", "trait-score", work,
                       evaluation, "evaluate_pdf_model", reversed_column("label"))
        expect_failure("raised word cut", "trait-build", work,
                       pdfmodel, "build_model", raised_word_cut)
        expect_failure("constant answers", "survey-sweep", work,
                       commonsense, "predict_with_bank", constant_answers)
        expect_failure("missing answer", "survey-sweep", work,
                       commonsense, "predict_with_bank", dropped_question)
        check_missing_boundary()
        check_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"smoke": "passed"}))


if __name__ == "__main__":
    main()
