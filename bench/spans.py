"""In-memory span tracer for the benchmark's traced run.

`Tracer.install` wraps public functions of the panda package in the module
namespaces where their callers look them up (and the upper-level objective
methods on their classes).  Each call then records a span: its name, the
namespace it was called through, start, end, and the span that was open when
it began.  The wrappers hand arguments and results through untouched and draw
no random numbers, so a traced run must produce the same records as an
untraced one; the benchmark checks that bit for bit.

A span's self time is its duration minus the durations of its direct child
spans.  Layer busy times below are sums of self times, so the layers
partition the time of the optimizer runs they are nested in.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

ROOT = "optim.run"


def _batch_info(args, kwargs, out):
    # sample_batch(game, model, pmin, pmax, batch, horizon, stream, purpose, outer, inner);
    # steps are counted by the package's own counter, whatever a batch looks like
    from panda.sampling import n_env_steps

    batch = args[4] if len(args) > 4 else kwargs["batch"]
    outer = args[8] if len(args) > 8 else kwargs.get("outer", 0)
    inner = args[9] if len(args) > 9 else kwargs.get("inner", 0)
    return batch, n_env_steps(out), outer, inner


def _sweeps(args, kwargs, out):
    return out.sweeps


# (module, attribute, span name, what to keep from a call); one entry per
# namespace the package's own callers look the name up in
FUNCTIONS = [
    ("panda.cli", "load_experiment", "cli.load_experiment", None),
    ("panda.envs", "build_env", "envs.build_env", None),
    ("panda.optim", "exact_metrics", "optim.exact_metrics", None),
    ("panda.optim", "ni_gradients", "exact.ni_gradients", None),
    ("panda.optim", "sample_batch", "sampling.sample_batch", _batch_info),
    ("panda.envs", "sample_batch", "sampling.sample_batch", _batch_info),
    ("panda.optim", "estimate_gradients", "sampling.estimate_gradients", None),
    ("panda.optim", "best_response", "exact.best_response", _sweeps),
    ("panda.exact", "best_response", "exact.best_response", _sweeps),
    ("panda.optim", "exact_grad_policy", "exact.exact_grad_policy", None),
    ("panda.exact", "exact_grad_policy", "exact.exact_grad_policy", None),
    ("panda.optim", "exact_grad_x", "exact.exact_grad_x", None),
    ("panda.exact", "exact_grad_x", "exact.exact_grad_x", None),
    ("panda.sampling", "effective_reward", "game.effective_reward", None),
    ("panda.exact", "effective_reward", "game.effective_reward", None),
]

# (module, class, methods, span name): upper-level objectives are called as
# env.ul.<method>, so their namespace is the class
METHODS = [
    ("panda.envs", cls, methods, name)
    for cls in ("SyntheticUL", "SentinelUL")
    for methods, name in (
        (("value_exact", "grad_policies_exact", "grad_x_exact"), "envs.ul_exact"),
        (("value_estimate", "grad_policies_estimate", "grad_x_estimate"), "envs.ul_estimate"),
    )
]


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "info")

    def __init__(self, name, site, parent):
        self.name, self.site, self.parent = name, site, parent
        self.start = self.end = 0.0
        self.info = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _begin(self, name, site) -> Span:
        span = Span(name, site, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _finish(self, span: Span):
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name, site, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name, site)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if info is not None:
                span.info = info(args, kwargs, out)
            return out
        return traced

    def run(self, fn, *args, **kwargs):
        """Call fn inside a root span named ROOT."""
        return self.wrap(fn, ROOT, "bench")(*args, **kwargs)

    def install(self):
        """Put the wrappers in place; returns a function that takes them out again."""
        undo = []
        for module, attr, name, info in FUNCTIONS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            undo.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name, module.split(".")[-1], info))
        for module, cls_name, methods, name in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            for attr in methods:
                fn = cls.__dict__[attr]
                undo.append((cls, attr, fn))
                setattr(cls, attr, self.wrap(fn, name, cls_name))

        def uninstall():
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)
        return uninstall

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": s.name, "site": s.site,
                                      "start": s.start, "end": s.end,
                                      "parent": s.parent, "info": s.info}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span in ms."""
    own = [s.ms for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.ms
    return own


def _oracle_inner_counts(spans: list[Span]) -> list[int]:
    """Inner iterations of each oracle outer iteration, read off the optim-namespace calls.

    Each oracle inner iteration calls exact_grad_policy twice, and each outer
    iteration ends with two exact_grad_x calls, all through panda.optim.
    """
    counts, grads = [], 0
    for s in spans:
        if s.site != "optim":
            continue
        if s.name == "exact.exact_grad_policy":
            grads += 1
        elif s.name == "exact.exact_grad_x":
            if grads:
                counts.append(grads // 2)
            grads = 0
    return counts


def round_metrics(spans: list[Span], inner_cap: int | None) -> dict:
    """Per-layer metrics of one traced round (one pass over the slice), as name: (value, unit)."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + t

    def total(name):
        return sum(s.ms for s in spans if s.name == name)

    batches = [s.info for s in spans if s.name == "sampling.sample_batch"]
    trajectories = sum(b[0] for b in batches)
    env_steps = sum(b[1] for b in batches)
    roots = [i for i, s in enumerate(spans) if s.name == ROOT]
    run_ms = sum(spans[i].ms for i in roots)
    # sampled optimizers: one inner iteration per distinct (outer, inner) batch
    # coordinate they draw through panda.optim, counted per run
    sampled_inner = 0
    for r in roots:
        coords = set()
        for i in range(r + 1, len(spans)):
            s = spans[i]
            if s.name == ROOT:
                break
            if s.name == "sampling.sample_batch" and s.site == "optim":
                coords.add(s.info[2:])
        sampled_inner += len(coords)
    oracle_inner = _oracle_inner_counts(spans)
    rollout = busy.get("sampling.sample_batch", 0.0)
    estimate = busy.get("sampling.estimate_gradients", 0.0)
    exact = sum(t for name, t in busy.items() if name.startswith("exact."))
    n_eval = calls.get("optim.exact_metrics", 0)
    n_est = calls.get("sampling.estimate_gradients", 0)
    return {
        "sampling.batches": (len(batches), "count"),
        "sampling.trajectories": (trajectories, "count"),
        "sampling.env_steps": (env_steps, "count"),
        "sampling.rollout_ms": (rollout, "ms"),
        "sampling.rollout_us_per_step": (rollout * 1e3 / env_steps if env_steps else 0.0, "us"),
        "sampling.rollout_us_per_traj": (rollout * 1e3 / trajectories if trajectories else 0.0, "us"),
        "sampling.estimate_ms": (estimate, "ms"),
        "sampling.estimate_ms_per_batch": (estimate / n_est if n_est else 0.0, "ms"),
        "sampling.busy_pct": (100.0 * (rollout + estimate) / run_ms, "%"),
        "optim.exact_metrics.calls": (n_eval, "count"),
        "optim.exact_metrics.ms_per_call": (
            total("optim.exact_metrics") / n_eval if n_eval else 0.0, "ms"),
        "exact.best_response.calls": (calls.get("exact.best_response", 0), "count"),
        "exact.best_response.ms": (busy.get("exact.best_response", 0.0), "ms"),
        "exact.best_response.rounds": (
            sum(s.info for s in spans if s.name == "exact.best_response"), "count"),
        "exact.exact_grad_policy.calls": (calls.get("exact.exact_grad_policy", 0), "count"),
        "exact.exact_grad_policy.ms": (busy.get("exact.exact_grad_policy", 0.0), "ms"),
        "exact.exact_grad_x.ms": (busy.get("exact.exact_grad_x", 0.0), "ms"),
        "exact.busy_pct": (100.0 * exact / run_ms, "%"),
        "envs.ul_estimate.ms": (busy.get("envs.ul_estimate", 0.0), "ms"),
        "envs.ul_exact.calls": (calls.get("envs.ul_exact", 0), "count"),
        "envs.ul_exact.ms": (busy.get("envs.ul_exact", 0.0), "ms"),
        "game.effective_reward.calls": (calls.get("game.effective_reward", 0), "count"),
        "game.effective_reward.ms": (busy.get("game.effective_reward", 0.0), "ms"),
        "optim.inner_iters": (sampled_inner + sum(oracle_inner), "count"),
        "optim.oracle_capped_iters": (sum(1 for n in oracle_inner if n == inner_cap), "count"),
        "optim.self_ms": (busy.get(ROOT, 0.0) + busy.get("optim.exact_metrics", 0.0), "ms"),
    }


def median_ms(spans: list[Span], name: str) -> float:
    return statistics.median(s.ms for s in spans if s.name == name)
