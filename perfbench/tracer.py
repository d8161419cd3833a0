"""Spans around apgf's public functions, recorded from outside the program.

Each traced function is wrapped by rebinding it everywhere it is looked
up: every ``apgf.*`` module attribute that holds the original object is
replaced by the wrapper, so ``apgf.rollout.encode`` and
``apgf.trainer.decode_all`` are traced as well as their definitions. A
name that no longer exists in ``apgf`` is reported as absent; it is
never an error, because later versions of the program may delete it.

Spans stay in memory until the run ends. Every span records its name,
start, end, parent span and request id (the benchmark's own call index;
0 is set-up).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (span name, defining module, attribute path). Later versions of apgf
# may delete some of these; they are then reported as absent.
TRACED = (
    ("graphgen.generate_random_graph", "graphgen", "generate_random_graph"),
    ("graphgen.load_graph", "graphgen", "load_graph"),
    ("model.encode", "model", "encode"),
    ("model.decoder_scores", "model", "decoder_scores"),
    ("model.candidate_probs", "model", "candidate_probs"),
    ("model.save_checkpoint", "model", "save_checkpoint"),
    ("model.load_checkpoint", "model", "load_checkpoint"),
    ("model.copy_params", "model", "copy_params"),
    ("rollout.decode_all", "rollout", "decode_all"),
    ("numcore.Tape.backward", "numcore", "Tape.backward"),
    ("numcore.adam_step", "numcore", "adam_step"),
    ("oracle.brute_force_scores", "oracle", "brute_force_scores"),
    ("oracle.compare", "oracle", "compare"),
    ("trainer.train", "trainer", "train"),
    ("trainer.reinforce_loss", "trainer", "reinforce_loss"),
    ("trainer.evaluate", "trainer", "evaluate"),
    ("charts.line_chart", "charts", "line_chart"),
    ("charts.grouped_bar_chart", "charts", "grouped_bar_chart"),
    ("cli.main", "cli", "main"),
)

# decode_all is reported per mode, so the sampled and greedy rollouts
# are two spans.
DECODE_MODES = ("sample", "greedy")


def span_names() -> list[str]:
    names = []
    for name, _, _ in TRACED:
        if name == "rollout.decode_all":
            names += [f"{name}.{mode}" for mode in DECODE_MODES]
        else:
            names.append(name)
    return names


# Counts measured at the span boundaries, each taken from the first
# request in which it occurs so that it repeats exactly for a seed.
COUNTS = {
    "numcore.tape_records_per_decision": "count",
    "rollout.decisions_per_rollout": "count",
    "oracle.explored_paths": "count",
    "model.save_checkpoint.bytes": "B",
    "model.load_checkpoint.bytes": "B",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock  # the clock spans and pauses are timed with
        self.spans: list[Span | None] = []
        self.request = 0
        self.absent: list[str] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._sample_decisions = 0
        self._paused = False
        self.paused_s = 0.0  # time spent in paused(), left out of the wall time
        # request -> count name -> [numerator, denominator]
        self._counts: dict[int, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0])
        )

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        for _, module_name, _ in TRACED:
            try:
                importlib.import_module(f"apgf.{module_name}")
            except ModuleNotFoundError:
                pass
        modules = [m for k, m in sorted(sys.modules.items()) if k == "apgf" or k.startswith("apgf.")]
        for name, module_name, attr in TRACED:
            owner = sys.modules.get(f"apgf.{module_name}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if len(path) > 1:  # a method: rebind it on its class
                self._rebind(owner, path[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, original):
        signature = inspect.signature(original)
        after = _OBSERVERS.get(name)
        is_decode = name == "rollout.decode_all"
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            bound = None
            if after is not None or is_decode:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            span_name = f"{name}.{bound.arguments.get('mode', 'sample')}" if is_decode else name
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else None
            tracer.spans.append(None)
            tracer._open.append(index)
            start = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._open.pop()
                tracer.spans[index] = Span(span_name, start, end, parent, tracer.request)
            if after is not None:
                after(tracer, bound.arguments, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced; used for the benchmark's own checks."""
        self._paused = True
        started = self.clock()
        try:
            yield
        finally:
            self._paused = False
            self.paused_s += self.clock() - started

    # -- summary ----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """calls, self seconds and self share of ``wall_s`` per span name,
        then the counts. Absent names read 0."""
        spans = [s for s in self.spans if s is not None]
        child_s = [0.0] * len(self.spans)
        for s in spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s is None:
                continue
            calls[s.name] += 1
            self_s[s.name] += (s.end - s.start) - child_s[i]
        out: dict[str, tuple[float, str]] = {}
        for name in span_names():
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.self_share"] = (100.0 * self_s[name] / wall_s, "%")
        for name, unit in COUNTS.items():
            out[name] = (self._first_count(name), unit)
        out["oracle.cache_hit_ratio"] = (self._cache_hit_ratio(spans), "ratio")
        return out

    def _first_count(self, name: str) -> float:
        for request in sorted(self._counts):
            num, den = self._counts[request].get(name, (0.0, 0))
            if den:
                return num / den
        return 0.0

    def _cache_hit_ratio(self, spans: list[Span]) -> float:
        """Compares that found their oracle result cached, over all
        compares; each compare is one request."""
        compared = {s.request for s in spans if s.name == "oracle.compare"}
        searched = {s.request for s in spans if s.name == "oracle.brute_force_scores"}
        return len(compared - searched) / len(compared) if compared else 0.0

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,request\n")
            for i, s in enumerate(self.spans):
                if s is not None:
                    parent = "" if s.parent is None else s.parent
                    fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{parent},{s.request}\n")


# -- counts observed after a call returns --------------------------------


def _add(tracer: Tracer, name: str, num: float, den: int = 1) -> None:
    count = tracer._counts[tracer.request][name]
    count[0] += num
    count[1] += den


def _after_decode(tracer: Tracer, args, result) -> None:
    visited = getattr(result, "visit_order", None)
    if visited is not None:
        _add(tracer, "rollout.decisions_per_rollout", len(visited) - 1)
        if args.get("mode") == "sample":
            tracer._sample_decisions += len(visited) - 1


def _after_backward(tracer: Tracer, args, result) -> None:
    # The tape handed to backward holds every record of the epoch's
    # sampled rollouts and losses; divide by the decisions they made.
    decisions, tracer._sample_decisions = tracer._sample_decisions, 0
    if decisions:
        _add(tracer, "numcore.tape_records_per_decision", len(args["self"]), decisions)


def _after_oracle(tracer: Tracer, args, result) -> None:
    explored = getattr(result, "explored_path_count", None)
    if explored is not None:
        _add(tracer, "oracle.explored_paths", explored)


def _file_bytes(name: str):
    def after(tracer: Tracer, args, result) -> None:
        path = args.get("path")
        if path is not None and os.path.exists(path):
            _add(tracer, name, os.path.getsize(path))

    return after


_OBSERVERS = {
    "rollout.decode_all": _after_decode,
    "numcore.Tape.backward": _after_backward,
    "oracle.brute_force_scores": _after_oracle,
    "model.save_checkpoint": _file_bytes("model.save_checkpoint.bytes"),
    "model.load_checkpoint": _file_bytes("model.load_checkpoint.bytes"),
}
