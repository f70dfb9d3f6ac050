"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each listed function or method with a wrapper
that records a span: name, start, end, parent span and the context (the
offline sample, the set-up or the question) it belongs to. Functions bound
into other modules by ``from ... import`` are replaced wherever the caller
looks them up, so nothing under ``src/`` changes. ``uninstall`` restores the
originals, so untraced work after a traced unit pays nothing.

Spans live in flat arrays and are written out by ``write`` when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from pathlib import Path

# (module, attribute, span name)
TRACED = (
    ("factqa.kb", "load_kb", "kb.load"),
    ("factqa.kb", "expand_predicates", "kb.expand"),
    ("factqa.kb", "KnowledgeBase.value_distribution", "kb.value_distribution"),
    ("factqa.hasharray", "StaticHashArray.build", "hasharray.build"),
    ("factqa.hasharray", "StaticHashArray.load", "hasharray.load"),
    ("factqa.hasharray", "StaticHashArray.lookup", "hasharray.lookup"),
    ("factqa.hasharray", "find_mentions", "hasharray.find_mentions"),
    ("factqa.concepts", "ConceptGraph.load", "concepts.load"),
    ("factqa.concepts", "ConceptGraph.question_concepts", "concepts.question_concepts"),
    ("factqa.concepts", "derive_templates", "concepts.derive_templates"),
    ("factqa.corpus", "tokenize", "corpus.tokenize"),
    ("factqa.corpus", "load_corpus", "corpus.load"),
    ("factqa.corpus", "corpus_stats", "corpus.stats"),
    ("factqa.corpus", "kb_mentions", "corpus.kb_mentions"),
    ("factqa.corpus", "EntityValueExtractor.extract", "corpus.extract"),
    ("factqa.corpus", "EntityValueExtractor.candidate_values", "corpus.candidate_values"),
    ("factqa.learn", "TrainingSet.build", "learn.trainset_build"),
    ("factqa.learn", "learn", "learn.learn"),
    ("factqa.learn", "e_step", "learn.e_step"),
    ("factqa.learn", "m_step", "learn.m_step"),
    ("factqa.learn", "log_likelihood", "learn.log_likelihood"),
    ("factqa.learn", "PredicateModel.load", "learn.model_load"),
    ("factqa.engine", "AnswerEngine.answer_distribution", "engine.answer_distribution"),
    ("factqa.engine", "AnswerEngine.answer_sequence", "engine.answer_sequence"),
    ("factqa.decompose", "PatternIndex.build", "decompose.pattern_index_build"),
    ("factqa.decompose", "Decomposer.is_primitive", "decompose.is_primitive"),
    ("factqa.decompose", "Decomposer.decompose", "decompose.decompose"),
    ("factqa.pipeline", "load_entity_dictionary", "pipeline.load_dictionary"),
    ("factqa.pipeline", "build_entity_index", "pipeline.entity_index"),
    ("factqa.pipeline", "corpus_seed_entities", "pipeline.seed_entities"),
    ("factqa.pipeline", "run_offline", "pipeline.run_offline"),
    ("factqa.pipeline", "OnlineSession.__init__", "pipeline.setup"),
    ("factqa.pipeline", "OnlineSession.answer_record", "pipeline.answer_record"),
)


class Tracer:
    def __init__(self) -> None:
        self.names = [name for _, _, name in TRACED]
        self.contexts: list[tuple[str, str]] = []  # (kind, label) per context id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("H")
        self.context = array("l")
        self.outer = array("b")  # no enclosing span of the same name
        self.truthy = array("b")  # the call returned a non-empty result
        self.tallies: dict[tuple[str, str], list[float]] = {}
        self.model = None  # set while answering, to count templates with rows
        self._current = -1
        self._stack: list[int] = []
        self._depth = [0] * len(self.names)
        self._patches: list[tuple[object, str, object]] = []

    def enter(self, kind: str, label: str) -> None:
        """Attribute the following spans to a new context."""
        self.contexts.append((kind, label))
        self._current = len(self.contexts) - 1

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "factqa"]
        for nid, (module_name, attr, span) in enumerate(TRACED):
            owner: object = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf]
            if isinstance(raw, classmethod):
                self._patch(owner, leaf, classmethod(self._wrap(raw.__func__, nid, span)))
                continue
            wrapped = self._wrap(raw, nid, span)
            self._patch(owner, leaf, wrapped)
            if not path:  # rebind copies made by "from ... import"
                for module in modules:
                    if module is not owner and vars(module).get(leaf) is raw:
                        self._patch(module, leaf, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, nid: int, span: str):
        start, end, parent, name = self.start, self.end, self.parent, self.name
        context, outer, truthy = self.context, self.outer, self.truthy
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        tally = _TALLIES.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            context.append(self._current)
            outer.append(depth[nid] == 0)
            truthy.append(0)
            end.append(0.0)
            stack.append(i)
            depth[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                depth[nid] -= 1
            if result:
                truthy[i] = 1
            if tally is not None:
                tally(self, span, result)
            return result

        return traced

    def add(self, span: str, *values: float) -> None:
        kind = self.contexts[self._current][0]
        acc = self.tallies.setdefault((kind, span), [0.0] * len(values))
        for k, v in enumerate(values):
            acc[k] += v

    # -- reading ----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per context kind and span name: calls, outermost calls, calls with
        a non-empty result, total self time and total outermost time (s)."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, list[float]]] = {}
        for i in range(n):
            kind = self.contexts[self.context[i]][0] if self.context[i] >= 0 else "none"
            row = out.setdefault(kind, {}).setdefault(self.names[self.name[i]], [0, 0, 0, 0.0, 0.0])
            duration = self.end[i] - self.start[i]
            row[0] += 1
            row[2] += self.truthy[i]
            row[3] += duration - child[i]
            if self.outer[i]:
                row[1] += 1
                row[4] += duration
        units = {kind: sum(1 for k, _ in self.contexts if k == kind) for kind in out}
        tallies: dict[str, dict[str, list[float]]] = {}
        for (kind, span), values in self.tallies.items():
            tallies.setdefault(kind, {})[span] = values
        return {"spans": out, "units": units, "tallies": tallies}

    def write(self, path: Path) -> None:
        """One line per span: id, parent, name, context, start and end in
        microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fp:
            fp.write("id\tparent\tname\tcontext\tstart_us\tend_us\n")
            for i in range(len(self.name)):
                kind, label = self.contexts[self.context[i]] if self.context[i] >= 0 else ("", "")
                fp.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t{kind}:{label}\t"
                    f"{(self.start[i] - origin) * 1e6:.1f}\t{(self.end[i] - origin) * 1e6:.1f}\n"
                )


def _templates(tracer: Tracer, span: str, result) -> None:
    if tracer.model is not None:
        tracer.add(span, len(result), sum(1 for t in result if t.text in tracer.model))


def _enumerations(tracer: Tracer, span: str, result) -> None:
    tracer.add(span, result.enumerations)


_TALLIES = {
    "concepts.derive_templates": _templates,
    "engine.answer_distribution": _enumerations,
}
