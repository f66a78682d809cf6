"""Spans and call counts recorded from outside the program.

The benchmark never edits prockt: a traced run wraps the public callables
it wants to time (module functions, methods, the chat client) and restores
them afterwards. Spans stay in memory and are written out once, when the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager

from prockt import nn
from prockt.pipeline import prompts

# Each stage's prompt starts with its template's fixed text (everything
# before the first placeholder), so the stage is known from the prompt alone.
_STAGE_PREFIXES = {
    stage: template[:template.index("{")]
    for stage, template in (("indicators", prompts.INDICATOR_TEMPLATE),
                            ("responses", prompts.STUDENT_TEMPLATE),
                            ("verdicts", prompts.EVAL_TEMPLATE))
}
STAGES = tuple(_STAGE_PREFIXES)


def stage_of(prompt: str) -> str:
    for stage, prefix in _STAGE_PREFIXES.items():
        if prompt.startswith(prefix):
            return stage
    raise ValueError("prompt matches no pipeline stage template")


class Tracer:
    """In-memory spans: id, name, parent, start, end and tags, one run id.

    Parents follow each thread's stack of open spans. A span opened on a
    thread with an empty stack (a pipeline worker) is parented to the span
    open on the thread that created the tracer.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **tags):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({"id": span_id, "name": name, "parent": parent,
                                   "start": start, "end": end, "tags": tags})

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the union of the intervals its children cover."""
    covered, cur_start, cur_end = 0.0, None, None
    for child in sorted(children, key=lambda s: s["start"]):
        start, end = max(child["start"], span["start"]), min(child["end"], span["end"])
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return duration(span) - covered


class CountingClient:
    """Thread-safe call counts around a chat client.

    ``MockChatClient.calls`` is a bare ``+= 1`` that loses updates under the
    pipeline's thread pool, so calls are counted here, under a lock, by stage,
    together with the distinct prompts seen. With a tracer, each call is also
    a ``complete`` span tagged with its stage.
    """

    def __init__(self, inner, tracer: Tracer | None = None):
        self.inner = inner
        self.tracer = tracer
        self.calls: Counter[str] = Counter()
        self.prompts: set[str] = set()
        self._lock = threading.Lock()

    def complete(self, system_message: str, user_message: str, params) -> str:
        stage = stage_of(user_message)
        if self.tracer is None:
            text = self.inner.complete(system_message, user_message, params)
        else:
            with self.tracer.span("complete", stage=stage):
                text = self.inner.complete(system_message, user_message, params)
        with self._lock:
            self.calls[stage] += 1
            self.prompts.add(user_message)
        return text


def count_graph(loss) -> Counter:
    """Nodes reachable from ``loss``, by op tag; leaves count as ``leaf``."""
    ops: Counter[str] = Counter()
    seen: set[int] = set()
    todo = [loss]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops[node._op or "leaf"] += 1
        todo.extend(node._parents)
    return ops


@contextmanager
def traced_model_calls(tracer: Tracer, model, graph_counts: list[Counter]):
    """Span the calls ``training.train`` and ``evaluate`` make, inside the block.

    ``train`` looks ``composite_loss`` and ``evaluate`` up in its own module,
    so those names are replaced there; ``backward`` and ``step`` are replaced
    on their classes and ``forward`` on the model instance. The graph of
    every loss is counted after its span has closed.
    """
    loop = importlib.import_module("prockt.training.loop")
    loss_span = tracer.wrap("composite_loss", loop.composite_loss)

    def loss_and_count(*args, **kwargs):
        loss = loss_span(*args, **kwargs)
        graph_counts.append(count_graph(loss))
        return loss

    patches = [(loop, "composite_loss", loss_and_count),
               (loop, "evaluate", tracer.wrap("evaluate", loop.evaluate)),
               (nn.Tensor, "backward", tracer.wrap("backward", nn.Tensor.backward)),
               (nn.Adam, "step", tracer.wrap("adam_step", nn.Adam.step))]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    model.forward = tracer.wrap("forward", model.forward)
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
        del model.forward
