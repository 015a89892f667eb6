"""Per-layer spans for the traced benchmark run.

Each span wraps one or more public functions of an evofusion module. A
wrapper is installed wherever a caller looks the function up: module
globals (``from .x import f`` copies), module-level dicts (such as a
table of selectors), default argument values and class attributes.
Patching only the defining module would miss every caller that bound
the name at import time.

Spans keep totals in memory; ``Tracer.layer_metrics`` turns them into
the per-layer figures, as averages per benchmark operation.
"""
from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import Counter, defaultdict

# span name -> functions it wraps, as "module:qualname". A target that no
# longer exists is skipped; a span fails the run only if none of its
# targets recorded a call on a workload that exercises it.
SPANS = {
    "cli.main": ["cli:main"],
    "data.load": ["data:read_manifest", "data:load_all_tasks", "data:load_strategy",
                  "cli:_load_pool_dir"],
    "data.read_fmat": ["data:read_fmat"],
    "data.read_labels": ["data:read_labels"],
    "driver.run": ["driver:run_evolution"],
    "driver.lookup": ["driver:_TaskState.evaluate"],
    "proxy.evaluate": ["proxy:evaluate_individual"],
    "proxy.train": ["proxy:train_head"],
    "proxy.fit": ["proxy:fit_focal_logistic"],
    "proxy.score": ["proxy:ProxyModel.scores"],
    "fusion.fuse": ["fusion:fuse_genotype"],
    "fusion.standardize": ["fusion:fit_standardizer", "fusion:Standardizer.transform"],
    "metrics.auprc": ["metrics:auprc"],
    "metrics.confusion": ["metrics:confusion"],
    "operators.offspring": ["operators:generate_offspring"],
    "operators.de": ["operators:batch_de"],
    "neighborhood.build": ["neighborhood:build_neighborhoods"],
    "nsga3.select": ["nsga3:environmental_selection"],
}

# spans every operation of a workload kind must fire
SEARCH_SPANS = tuple(SPANS)
SCORE_SPANS = ("cli.main", "data.load", "data.read_fmat", "data.read_labels", "proxy.score",
               "fusion.fuse", "fusion.standardize", "metrics.auprc", "metrics.confusion")

# (metric, unit); values are per operation unless the unit says otherwise
LAYER_METRICS = (
    ("data.load_s", "s"), ("data.read_fmat_s", "s"), ("data.read_fmat_mb", "MB"),
    ("data.read_labels_s", "s"),
    ("cli.self_s", "s"),
    ("driver.run_s", "s"), ("driver.concurrency", "1"),
    ("proxy.evaluate_s", "s"), ("proxy.evaluate_calls", "count"), ("proxy.cache_hits", "count"),
    ("proxy.failed_evals", "count"), ("proxy.train_s", "s"), ("proxy.fit_iters", "count"),
    ("proxy.fit_at_max_iter", "count"), ("proxy.score_s", "s"),
    ("fusion.fuse_s", "s"), ("fusion.fuse_calls", "count"), ("fusion.genes_folded", "count"),
    ("fusion.standardize_s", "s"),
    ("metrics.auprc_s", "s"), ("metrics.confusion_s", "s"),
    ("operators.offspring_s", "s"), ("operators.de_s", "s"), ("operators.transfers", "count"),
    ("neighborhood.build_s", "s"), ("neighborhood.entries", "count"),
    ("nsga3.select_s", "s"),
)


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Tracer:
    def __init__(self, max_iter: int):
        self.max_iter = max_iter
        self.lock = threading.Lock()
        self.local = threading.local()
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        cpu = name == "driver.run"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack()
            frame = _Frame()
            stack.append(frame)
            cpu0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                cpu_used = time.process_time() - cpu0 if cpu else 0.0
                stack.pop()
                if stack:
                    stack[-1].child += elapsed
                with self.lock:
                    self.seconds[name] += elapsed
                    self.calls[name] += 1
                    if name == "cli.main":
                        self.counts["cli.self"] += elapsed - frame.child
                    if cpu:
                        self.counts["driver.cpu"] += cpu_used
            if after is not None:
                with self.lock:
                    after(result, args)
            return result

        return span

    # counters recorded at the span boundaries
    def _after_data_read_fmat(self, result, args):
        self.counts["data.read_fmat_bytes"] += os.path.getsize(args[0])

    def _after_proxy_evaluate(self, result, args):
        self.counts["proxy.failed_evals"] += bool(args[0].failed)

    def _after_proxy_fit(self, result, args):
        iters = len(result[2]) - 1
        self.counts["proxy.fit_iters"] += iters
        self.counts["proxy.fit_at_max_iter"] += iters >= self.max_iter

    def _after_fusion_fuse(self, result, args):
        self.counts["fusion.genes_folded"] += len(args[0].genes) - 1

    def _after_operators_offspring(self, result, args):
        self.counts["operators.transfers"] += result[1] is not None

    def _after_neighborhood_build(self, result, args):
        self.counts["neighborhood.entries"] += sum(
            len(entries) for task_map in result.values() for entries in task_map.values()
        )

    def install(self) -> None:
        """Wrap every span target and rebind each reference to it."""
        import evofusion.cli  # noqa: F401  (imports every module the CLI uses)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "evofusion" or n.startswith("evofusion.")]
        for name, targets in SPANS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                obj = sys.modules.get("evofusion." + module_name)
                for part in qualname.split("."):
                    obj = getattr(obj, part, None)
                if obj is not None:
                    _rebind(modules, obj, self.wrap(name, obj))

    def fired(self, name: str) -> bool:
        return self.calls[name] > 0

    def layer_metrics(self, ops: int) -> dict[str, float]:
        s, c, k = self.seconds, self.calls, self.counts
        fits = c["proxy.fit"]
        values = {
            "data.load_s": s["data.load"],
            "data.read_fmat_s": s["data.read_fmat"],
            "data.read_fmat_mb": k["data.read_fmat_bytes"] / 1e6,
            "data.read_labels_s": s["data.read_labels"],
            "cli.self_s": k["cli.self"],
            "driver.run_s": s["driver.run"],
            "proxy.evaluate_s": s["proxy.evaluate"],
            "proxy.evaluate_calls": c["proxy.evaluate"],
            "proxy.cache_hits": c["driver.lookup"] - c["proxy.evaluate"] if c["driver.lookup"] else 0,
            "proxy.failed_evals": k["proxy.failed_evals"],
            "proxy.train_s": s["proxy.train"],
            "proxy.fit_at_max_iter": k["proxy.fit_at_max_iter"],
            "proxy.score_s": s["proxy.score"],
            "fusion.fuse_s": s["fusion.fuse"],
            "fusion.fuse_calls": c["fusion.fuse"],
            "fusion.genes_folded": k["fusion.genes_folded"],
            "fusion.standardize_s": s["fusion.standardize"],
            "metrics.auprc_s": s["metrics.auprc"],
            "metrics.confusion_s": s["metrics.confusion"],
            "operators.offspring_s": s["operators.offspring"],
            "operators.de_s": s["operators.de"],
            "operators.transfers": k["operators.transfers"],
            "neighborhood.build_s": s["neighborhood.build"],
            "neighborhood.entries": k["neighborhood.entries"],
            "nsga3.select_s": s["nsga3.select"],
        }
        values = {key: v / ops for key, v in values.items()}
        # ratios are not divided by the operation count
        values["driver.concurrency"] = k["driver.cpu"] / s["driver.run"] if s["driver.run"] else 0.0
        values["proxy.fit_iters"] = k["proxy.fit_iters"] / fits if fits else 0.0
        return {key: values[key] for key, _ in LAYER_METRICS}


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
            elif getattr(value, "__module__", None) != module.__name__:
                continue
            elif isinstance(value, type):
                for name, item in list(vars(value).items()):
                    if item is original:
                        setattr(value, name, wrapper)
                    else:
                        _swap_defaults(item, original, wrapper)
            else:
                _swap_defaults(value, original, wrapper)


def _swap_defaults(fn, original, wrapper) -> None:
    # an already wrapped function keeps its defaults on the original
    fn = getattr(fn, "__wrapped__", fn)
    defaults = getattr(fn, "__defaults__", None)
    if defaults and any(d is original for d in defaults):
        fn.__defaults__ = tuple(wrapper if d is original else d for d in defaults)
