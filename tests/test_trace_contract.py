"""The benchmark's tracer finds every name it wraps and reads what it expects.

`bench/spans.py` wraps package functions in the module namespaces their
callers look them up in, and upper-level objective methods on their classes.
A name deleted or moved out of one of those places breaks `bench/run.py
--trace 1`, so these tests check the tracer's tables against the package.
The tracer also reads arguments by position and results by attribute, and
counts oracle inner iterations from the pattern of exact-gradient calls; a
change to any of these would corrupt the per-layer metrics silently, so the
last tests check them on real calls, and check that the steps the traced
batches hold add up to each sampled optimizer's recorded step count.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from panda.envs import build_env
from panda.game import TabularPolicy
from panda.optim import PandaConfig, run_alternating, run_oracle, run_panda, run_pbrl

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve_in_their_modules():
    missing = [f"{module}.{attr}" for module, attr, _, _ in load_spans().FUNCTIONS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_traced_methods_are_defined_on_their_classes():
    missing = [f"{module}.{cls}.{attr}"
               for module, cls, methods, _ in load_spans().METHODS
               for attr in methods
               if attr not in vars(getattr(importlib.import_module(module), cls))]
    assert not missing


def test_batch_info_reads_batch_outer_and_inner_by_position():
    from panda.sampling import RngStream, n_env_steps, sample_batch

    params = list(inspect.signature(sample_batch).parameters)
    assert [params[i] for i in (4, 8, 9)] == ["batch", "outer", "inner"]
    env = build_env("synthetic")
    pols = (TabularPolicy.uniform(5, 3), TabularPolicy.uniform(5, 3))
    args = (env.game, env.model, [pols[0]], [pols[1]], 4, 3, RngStream(0), [2], 7, 5)
    out = sample_batch(*args)
    assert load_spans()._batch_info(args, {}, out) == (4, n_env_steps(out), 7, 5)


def test_sweeps_reads_best_response_rounds():
    from panda.exact import best_response

    env = build_env("synthetic")
    out = best_response(env.game, env.model, np.full((5, 3), 1 / 3), "max")
    assert out.sweeps >= 1
    assert load_spans()._sweeps((), {}, out) == out.sweeps


def test_oracle_inner_counts_match_a_traced_oracle_run():
    spans = load_spans()
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        tracer.run(run_oracle, build_env("synthetic"), PandaConfig(outer_iters=2),
                   inner_cap=3, inner_tol=0.0)
    finally:
        uninstall()
    assert spans._oracle_inner_counts(tracer.spans) == [3, 3]


@pytest.mark.parametrize("runner", [run_panda, run_pbrl, run_alternating])
def test_traced_sample_batch_steps_add_up_to_the_recorded_env_steps(runner):
    """The benchmark's traced step count, summed over `sample_batch` spans, is the run's own."""
    spans = load_spans()
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        res = tracer.run(runner, build_env("synthetic"),
                         PandaConfig(outer_iters=2, inner_iters=3, seed=4))
    finally:
        uninstall()
    steps = [s.info[1] for s in tracer.spans if s.name == "sampling.sample_batch"]
    assert steps and sum(steps) == res.state.env_steps > 0
    assert spans.round_metrics(tracer.spans, None)["sampling.env_steps"][0] == sum(steps)
