"""Span tracing of morlext from outside the package.

`Tracer.install` replaces every public function of every morlext module,
and a few hot methods, with a wrapper that opens a span linked to the
span open when it was called. Because the modules import each other's
functions by name, each module attribute that refers to a wrapped
function is patched; `uninstall` restores all of them.

Spans are aggregated as they close: per function the tracer keeps the
call count, total duration and self time (duration minus the time its
child spans cover), and per (parent, child) pair the child's total
duration. Memory therefore stays constant however many calls a run
makes. `keep_spans=True` additionally records every span, for small runs
that check nesting.

Counter hooks record work counts at the same boundaries (rows stepped,
points filtered, bytes archived). A hook runs after its span closes, so
it adds nothing to any self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time

# Leaf functions called so often that a span would distort their callers'
# self times; they get a call counter only, and their time stays in the
# caller's self time.
COUNT_ONLY = {"pareto.dominates"}

# Methods that are layer boundaries but are not module-level functions:
# (module, class, method) -> span name. Every environment inherits the
# batched interface of VectorRewardEnv, so its spans are named after the
# module alone.
TRACED_METHODS = {
    ("envs", "VectorRewardEnv", "reset_batch"): "envs.reset_batch",
    ("envs", "VectorRewardEnv", "step_batch"): "envs.step_batch",
    ("policy", "Mlp", "forward"): "policy.Mlp.forward",
    ("policy", "Mlp", "forward_cached"): "policy.Mlp.forward_cached",
    ("policy", "Mlp", "backward"): "policy.Mlp.backward",
    ("ppo", "Adam", "step"): "ppo.Adam.step",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _on_step_batch(counters, args, kwargs, result):
    _count(counters, "envs.step_batch.rows", len(_arg(args, kwargs, 1, "obs")))


def _on_filter(counters, args, kwargs, result):
    _count(counters, "pareto.non_dominated_filter.points_in", len(_arg(args, kwargs, 0, "points")))
    _count(counters, "pareto.non_dominated_filter.points_kept", len(result))


def _on_train(counters, args, kwargs, result):
    steps = int(_arg(args, kwargs, 3, "total_steps"))
    batch = _arg(args, kwargs, 4, "cfg").steps_per_batch
    _count(counters, "ppo.train.zero_step_calls", int(steps < batch))


def _on_archive(counters, args, kwargs, result, key):
    _count(counters, key, os.path.getsize(_arg(args, kwargs, 0, "path")))


def _on_run_pipeline(counters, args, kwargs, result):
    # Evaluation requests the pipeline makes; the evaluator serves the
    # repeats from its cache, so the traced evaluate_returns calls can be
    # fewer.
    requests = (
        sum(1 + dirs.m for dirs in result.directions)
        + 2 * len(result.bases)
        + len(result.candidates)
        + len(result.selected)
        + 2 * len(result.fine_tuned)
    )
    _count(counters, "extension.eval_requests", requests)
    _count(counters, "extension.candidates", len(result.candidates))
    _count(counters, "extension.selected", len(result.selected))
    _count(counters, "extension.train_env_steps", result.ledger.training_steps)
    _count(counters, "extension.eval_env_steps", result.ledger.eval_steps)


HOOKS = {
    "envs.step_batch": _on_step_batch,
    "pareto.non_dominated_filter": _on_filter,
    "ppo.train": _on_train,
    "archive.save_archive": functools.partial(_on_archive, key="archive.save_archive.bytes"),
    "archive.load_archive": functools.partial(_on_archive, key="archive.load_archive.bytes"),
    "extension.run_pipeline": _on_run_pipeline,
}


class Tracer:
    def __init__(self, keep_spans: bool = False):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.under: dict[tuple[str, str], float] = {}  # (parent, child) -> child total_s
        self.counters: dict[str, float] = {}
        self.root_s = 0.0  # time covered by spans that have no parent
        self.spans: list[tuple] | None = [] if keep_spans else None
        self._stack: list[list] = []  # open spans: [id, name, child_s]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _close(self, frame: list, parent: list | None, start: float, end: float) -> None:
        span_id, name, child_s = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_s
        if parent is None:
            self.root_s += duration
        else:
            parent[2] += duration
            key = (parent[1], name)
            self.under[key] = self.under.get(key, 0.0) + duration
        if self.spans is not None:
            self.spans.append((span_id, parent[0] if parent else None, name, start, end))

    def wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._wrap_counter(name, fn)
        tracer = self
        stack = self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, parent, start, end)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    def _wrap_counter(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Wrap the package's public functions and TRACED_METHODS."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for (short, cls_name, method), name in TRACED_METHODS.items():
            cls = getattr(getattr(package, short), cls_name)
            self._patch(cls, method, self.wrap(name, cls.__dict__[method]))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
