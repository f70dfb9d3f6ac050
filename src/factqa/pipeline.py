"""Offline and online orchestration over flat-file artifacts.

The offline flow builds the entity index, reads the corpus grouped by
question, probes each distinct question once, counting the patterns its
entity spans generate as it goes, expands predicate paths from the entities
mentioned, extracts observations question by question, runs the learner
and counts how often any span generates those patterns; all artifacts are
staged to temporary files and renamed into place only when every stage has
succeeded, so a failed stage leaves nothing behind. The online flow loads
those artifacts alone, the KB store written beside the index and the
concept file written beside the model among them, and reads no input file;
it answers questions, decomposing the ones that are not directly
answerable.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, get_args, get_type_hints

from . import corpus as corpus_mod
from .concepts import ConceptGraph, concepts_bytes, load_concepts
from .corpus import (
    CorpusMentions,
    CorpusStats,
    EntityValueExtractor,
    Tokens,
    corpus_stats,
    normalize_text,
    probe_corpus,
    tokenize,
)
from .decompose import DEFAULT_MAX_QUESTION_LEN, Decomposer, PatternIndex, QuestionTooLongError
from .engine import AnswerEngine
from .hasharray import StaticHashArray
from .kb import (
    KnowledgeBase,
    SpoPath,
    expand_predicates,
    expansion_map,
    load_kb,
    load_store,
    read_tsv,
    store_bytes,
    write_expansion,
)
from .learn import LearnResult, PredicateModel, TrainingSet, learn, write_observations

log = logging.getLogger("factqa")


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r} failed: {message}")
        self.stage = stage


@dataclass
class PipelineConfig:
    # inputs
    kb: Path | None = None
    entities: Path | None = None
    isa: Path | None = None
    corpus: Path | None = None
    predicate_categories: Path | None = None
    context_weights: Path | None = None
    fixture_overrides: Path | None = None
    # artifacts
    index: Path | None = None
    expansion: Path | None = None
    model: Path | None = None
    report: Path | None = None
    observations: Path | None = None
    # knobs
    k: int = 3
    name_restriction: bool = True
    name_symbol: str = "name"
    em_max_iters: int = 100
    em_epsilon: float = 1e-6
    max_question_len: int = DEFAULT_MAX_QUESTION_LEN

    def require(self, *names: str, reads: tuple[str, ...] = ()) -> None:
        """Check the knob ranges, then that ``names`` are set, and that the
        inputs among them and the set inputs among ``reads`` (the optional
        ones a command reads) are readable files."""
        for knob in _INT_FIELDS:
            if getattr(self, knob) < 1:
                raise ConfigError(f"{knob} must be >= 1, got {getattr(self, knob)}")
        if not self.em_epsilon >= 0:  # NaN fails too
            raise ConfigError(f"em_epsilon must be >= 0, got {self.em_epsilon}")
        if not self.name_symbol:  # no KB predicate is empty
            raise ConfigError("name_symbol must be non-empty")
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ConfigError("missing required settings: " + ", ".join(sorted(missing)))
        unreadable = [
            str(path)
            for n in names + reads
            if n in _INPUT_FIELDS and (path := getattr(self, n)) and not Path(path).is_file()
        ]
        if unreadable:
            raise ConfigError("unreadable input files: " + ", ".join(unreadable))


# Every setting with the type its text parses to: ``Path``, ``bool``,
# ``int``, ``float`` or ``str``, read from the annotation without ``| None``.
# The config-file reader, the range check and the CLI flags all read this.
SETTINGS: dict[str, type] = {
    name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
    for name, hint in get_type_hints(PipelineConfig).items()
}
_INPUT_FIELDS = {
    "kb", "entities", "isa", "corpus", "predicate_categories", "context_weights",
    "fixture_overrides",
}
# every integer knob must be >= 1
_INT_FIELDS = tuple(name for name, kind in SETTINGS.items() if kind is int)


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {value!r}")


def _parse(key: str, value: str, base: Path) -> object:
    """A config-file value; a relative path resolves against ``base``."""
    kind = SETTINGS[key]
    if kind is Path:
        return base / value  # an absolute value replaces base
    if kind is bool:
        return _parse_bool(value)
    return kind(value)


def load_config(
    path: str | Path | None, overrides: Mapping[str, object] | None = None
) -> PipelineConfig:
    """Read a ``key = value`` config file, if given; ``overrides`` that are
    not None win.

    Relative paths are resolved against the config file's directory.
    """
    values: dict[str, object] = {}
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in SETTINGS:
                raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
            try:
                values[key] = _parse(key, value.strip(), path.parent)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return PipelineConfig(**values)


def load_entity_dictionary(path: str | Path) -> list[tuple[str, str]]:
    """TSV ``id<TAB>surface`` rows, order preserved (first surface of an
    id is its canonical one)."""
    return read_tsv(path, 2)


def build_entity_index(
    kb: KnowledgeBase, dictionary: list[tuple[str, str]]
) -> tuple[StaticHashArray, dict[str, str]]:
    """Index normalized surfaces to KB node ids, in one pass over the
    dictionary that also finds each node's canonical surface, its first
    indexed one, which a chain step's text splices in for it: a wordless
    surface would leave the step no span to mention it at.

    A row is indexed when its node is in the KB and its surface normalizes
    to a non-empty key; the skipped rows are counted in a warning.
    """
    entries: list[tuple[str, int]] = []
    surfaces: dict[str, str] = {}
    unknown = wordless = 0
    for node, surface in dictionary:
        if node not in kb.nodes:
            unknown += 1
            continue
        key = normalize_text(surface)
        if not key:
            wordless += 1
            continue
        entries.append((key, kb.node_id(node)))
        surfaces.setdefault(node, surface)
    if unknown:
        log.warning("entity dictionary: skipped %d rows naming unknown nodes", unknown)
    if wordless:
        log.warning("entity dictionary: skipped %d rows whose surface has no word", wordless)
    return StaticHashArray.build(entries), surfaces


def corpus_seed_entities(mentions: Mapping[Tokens, list[tuple[tuple[int, int], str]]]) -> set[str]:
    """Entities mentioned in at least one corpus question."""
    return {entity for found in mentions.values() for _, entity in found}


def patterns_path(model: Path) -> Path:
    """The pattern validity file, learned with the model and kept beside it:
    ``world.model.tsv`` gives ``world.model.patterns.tsv``."""
    model = Path(model)
    return model.with_name(f"{model.stem}.patterns{model.suffix}")


def concepts_path(model: Path) -> Path:
    """The concept file, written with the model and kept beside it:
    ``world.model.tsv`` gives ``world.model.concepts``."""
    model = Path(model)
    return model.with_name(f"{model.stem}.concepts")


def store_path(index: Path) -> Path:
    """The KB store, written with the index and kept beside it:
    ``world.index`` gives ``world.index.kb``."""
    index = Path(index)
    return index.with_name(f"{index.name}.kb")


# the files an artifact setting also names: the KB store beside the index,
# the pattern validity and concept files beside the model
_BESIDE = {
    "index": (("the KB store of index", store_path),),
    "model": (("the pattern file of model", patterns_path),
              ("the concept file of model", concepts_path)),
}


def _refuse_artifact_paths(config: PipelineConfig, *artifacts: str,
                           config_file: Path | None = None, written: bool = False) -> None:
    """Refuse two of the files that the ``artifacts`` settings name, the
    files beside them included, that resolve to one path, and any of them
    that resolves to a configured input file or to the ``config_file`` the
    settings were read from: one would overwrite the other. Paths are
    compared made absolute and normalized, with no file system call
    (``Path.resolve`` makes one per path component, which online start-up
    would pay), so two that meet only through a symlink pass. Files to be
    ``written`` are refused too where they name an existing directory,
    which no artifact can be renamed onto once its stage has run, or where
    the nearest existing directory above them is another kind of file,
    under which no temp file can be staged."""
    seen = {os.path.abspath(getattr(config, n)): n for n in _INPUT_FIELDS if getattr(config, n)}
    if config_file is not None:
        seen.setdefault(os.path.abspath(config_file), "the config file")
    for name in artifacts:
        path = getattr(config, name)
        if path is None:
            continue
        files = [(name, path)] + [(label, beside(path)) for label, beside in _BESIDE.get(name, ())]
        for label, file in files:
            other = seen.setdefault(os.path.abspath(file), label)
            if other != label:
                raise ConfigError(f"{other} and {label} resolve to one file: {file}")
            if not written:
                continue
            if os.path.isdir(file):
                raise ConfigError(f"{label} names a directory: {file}")
            parent = os.path.dirname(os.path.abspath(file))
            while not os.path.lexists(parent):
                parent = os.path.dirname(parent)
            if not os.path.isdir(parent):
                raise ConfigError(f"{label} lies under a file that is not a directory: {parent}")


def _read(load, *paths: Path | None, advice: str = ""):
    """``load(*paths)``; a file that cannot be read or parsed (an OSError,
    or a ValueError such as a TsvParseError or a StoreFormatError) is a
    ConfigError naming it."""
    try:
        return load(*paths)
    except (OSError, ValueError) as exc:
        # a TsvParseError already names its file
        where = "" if getattr(exc, "path", None) else ", ".join(str(p) for p in paths if p) + ": "
        raise ConfigError(f"cannot load {where}{exc}{advice}") from exc


class Inputs(NamedTuple):
    """The parsed input files the offline stages share."""

    kb: KnowledgeBase
    dictionary: list[tuple[str, str]]
    corpus: CorpusStats
    concepts: ConceptGraph | None
    categories: dict[str, str]


def load_inputs(config: PipelineConfig, corpus: bool = True, learn: bool = True) -> Inputs:
    """The load stage: the KB and entity dictionary, plus the QA corpus
    grouped by question (empty when not read), and the inputs only
    extraction and learning read (the isA taxonomy with its
    context weights and overrides, and the predicate categories), unless
    told otherwise. A file that cannot be read or parsed is a ConfigError."""
    return Inputs(
        _read(load_kb, config.kb),
        _read(load_entity_dictionary, config.entities),
        _read(corpus_mod.load_corpus, config.corpus) if corpus else corpus_stats(()),
        _read(ConceptGraph.load, config.isa, config.context_weights, config.fixture_overrides)
        if learn
        else None,
        _read(corpus_mod.load_predicate_categories, config.predicate_categories)
        if learn and config.predicate_categories
        else {},
    )


class _Staged:
    """One offline run's artifacts, each written to a temp file and renamed
    into place only when every stage has succeeded. A failure in the
    ``with`` block that is not already a StageError becomes one naming the
    current ``stage``; a failed rename is one of stage "write", and leaves
    the artifacts renamed before it in place and no temp file."""

    def __init__(self) -> None:
        self.pending: list[tuple[Path, Path]] = []
        self.stage = "load"

    def path_for(self, final: Path) -> Path:
        """A new, empty temp file beside ``final`` (``<name>.<random>.tmp``),
        created exclusively, so concurrent runs never share one; its mode
        is that of a file made by ``open``."""
        final = Path(final)
        final.parent.mkdir(parents=True, exist_ok=True)
        while True:
            tmp = final.with_name(f"{final.name}.{os.urandom(4).hex()}.tmp")
            try:
                os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            except FileExistsError:
                continue
            self.pending.append((tmp, final))
            return tmp

    def __enter__(self) -> "_Staged":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if exc is None:
            for done, (tmp, final) in enumerate(self.pending):
                try:
                    os.replace(tmp, final)
                except OSError as error:
                    for left, _ in self.pending[done:]:
                        left.unlink(missing_ok=True)
                    raise StageError("write", f"cannot write {final}: {error}") from error
            return
        for tmp, _ in self.pending:
            tmp.unlink(missing_ok=True)
        if isinstance(exc, Exception) and not isinstance(exc, StageError):
            raise StageError(self.stage, str(exc)) from exc


def _index_stage(run: _Staged, config: PipelineConfig, inputs: Inputs) -> StaticHashArray:
    """Build the entity index; write it and, beside it, the KB store when
    an index path is configured."""
    run.stage = "build-index"
    index, surfaces = build_entity_index(inputs.kb, inputs.dictionary)
    if config.index is not None:
        run.path_for(config.index).write_bytes(index.to_bytes())
        run.path_for(store_path(config.index)).write_bytes(store_bytes(inputs.kb, surfaces))
    log.info("built entity index: %d items in %d buckets, longest key %d words, "
             "%d filter bytes", len(index), index.bucket_count, index.max_words,
             len(index.token_filter))
    return index


def _expand_stage(
    run: _Staged, config: PipelineConfig, inputs: Inputs, index: StaticHashArray
) -> tuple[CorpusMentions, set[str], set[SpoPath]]:
    """Probe each distinct corpus question once; expand predicate paths from
    the entities it mentions and write them."""
    run.stage = "expand"
    probed = probe_corpus(inputs.kb, index, inputs.corpus.question_counts)
    seeds = corpus_seed_entities(probed.mentions)
    paths = expand_predicates(
        inputs.kb,
        seeds,
        config.k,
        name_restriction=config.name_restriction,
        name_symbol=config.name_symbol,
    )
    with open(run.path_for(config.expansion), "w", encoding="utf-8") as fp:
        write_expansion(paths, fp)
    log.info("expanded %d seed entities into %d paths", len(seeds), len(paths))
    return probed, seeds, paths


def _extract_stage(
    run: _Staged, config: PipelineConfig, inputs: Inputs, paths: set[SpoPath],
    mentions: Mapping[Tokens, list[tuple[tuple[int, int], str]]],
) -> TrainingSet:
    """Extract the weighted observations, refined to the question category
    when predicate categories are supplied; write them when configured."""
    run.stage = "extract"
    extractor = EntityValueExtractor(
        inputs.kb,
        inputs.dictionary,
        expansion_map(paths),
        predicate_categories=inputs.categories,
    )
    training = TrainingSet.build(
        inputs.corpus, mentions, extractor, inputs.concepts, config.predicate_categories is not None
    )
    if not len(training):
        raise StageError("extract", "no observations extracted")
    if config.observations:
        with open(run.path_for(config.observations), "w", encoding="utf-8") as fp:
            write_observations(training.observations, fp)
    log.info("extracted %d observations from %d pairs", len(training), inputs.corpus.pairs)
    return training


def _learn_stage(
    run: _Staged, config: PipelineConfig, training: TrainingSet, patterns: PatternIndex,
    concepts: ConceptGraph,
) -> LearnResult:
    """Fit the model by EM; write it and, beside it, the pattern validity
    and the concept graph it was trained with."""
    run.stage = "learn"
    result = learn(training, config.em_max_iters, config.em_epsilon)
    result.model.save(run.path_for(config.model))
    patterns.save(run.path_for(patterns_path(config.model)))
    run.path_for(concepts_path(config.model)).write_bytes(concepts_bytes(concepts))
    return result


def run_build_index(config: PipelineConfig, config_file: Path | None = None) -> dict:
    """The load and build-index stages; artifacts written atomically. No
    artifact may overwrite ``config_file``, the settings' file."""
    config.require("kb", "entities", "index")
    _refuse_artifact_paths(config, "index", config_file=config_file, written=True)
    with _Staged() as run:
        index = _index_stage(run, config, load_inputs(config, corpus=False, learn=False))
    return {"index": str(config.index), "items": len(index)}


def run_expand(config: PipelineConfig, config_file: Path | None = None) -> dict:
    """The load, build-index and expand stages; artifacts written atomically.
    No artifact may overwrite ``config_file``, the settings' file."""
    config.require("kb", "entities", "corpus", "expansion")
    _refuse_artifact_paths(config, "index", "expansion", config_file=config_file, written=True)
    with _Staged() as run:
        inputs = load_inputs(config, learn=False)
        index = _index_stage(run, config, inputs)
        _, seeds, paths = _expand_stage(run, config, inputs, index)
    return {"expansion": str(config.expansion), "seeds": len(seeds), "paths": len(paths)}


def run_offline(config: PipelineConfig, config_file: Path | None = None) -> dict:
    """Index build, expansion, extraction, learning; atomic artifact writes.
    No artifact may overwrite ``config_file``, the settings' file."""
    config.require("kb", "entities", "isa", "corpus", "index", "expansion", "model", "report",
                   reads=("predicate_categories", "context_weights", "fixture_overrides"))
    _refuse_artifact_paths(config, "index", "expansion", "model", "report", "observations",
                           config_file=config_file, written=True)
    with _Staged() as run:
        inputs = load_inputs(config)
        index = _index_stage(run, config, inputs)
        if not inputs.corpus.total:  # the expand command runs on one; P(q) needs a pair
            raise StageError("expand", "empty corpus")
        probed, _, paths = _expand_stage(run, config, inputs, index)
        patterns = PatternIndex.build(inputs.corpus.question_counts, probed.f_v)
        training = _extract_stage(run, config, inputs, paths, probed.mentions)
        del probed  # EM needs none of it
        result = _learn_stage(run, config, training, patterns, inputs.concepts)
        report = {
            "triples": len(inputs.kb),
            "entities": len(inputs.kb.entities),
            "index_items": len(index),
            "expansion_paths": len(paths),
            "qa_pairs": inputs.corpus.pairs,
            "observations": len(training),
            "templates": len(result.model),
            "iterations": result.iterations,
            "final_log_likelihood": result.final_log_likelihood,
            "dropped_observations": result.dropped_observations,
        }
        with open(run.path_for(config.report), "w", encoding="utf-8") as fp:
            json.dump(report, fp, indent=2, sort_keys=True)
            fp.write("\n")
    return report


class OnlineSession:
    """Loaded artifacts plus the answering and decomposition machinery."""

    def __init__(self, config: PipelineConfig):
        config.require("index", "model")
        _refuse_artifact_paths(config, "index", "model")
        store_file = store_path(config.index)
        patterns_file, concepts_file = patterns_path(config.model), concepts_path(config.model)
        missing = [str(p) for p in (config.index, store_file, config.model, patterns_file,
                                    concepts_file) if not p.is_file()]
        if missing:
            raise ConfigError("missing artifacts (run the offline flow first): " + ", ".join(missing))
        rerun = ": rerun the offline flow"
        index = _read(StaticHashArray.load, config.index, advice=rerun)
        kb, surfaces = _read(load_store, store_file, advice=rerun)
        concepts = _read(load_concepts, concepts_file, advice=rerun)
        self.model = _read(PredicateModel.load, config.model, advice=rerun)
        self.engine = AnswerEngine(kb, index, concepts, self.model, surfaces)
        self.decomposer = Decomposer(
            self.engine,
            _read(PatternIndex.load, patterns_file, advice=rerun),
            max_question_len=config.max_question_len,
        )

    def answer_record(self, question: str) -> dict:
        """Answer one question: directly when its best chain is the question
        itself, else along the chain."""
        tokens = tokenize(question)
        record: dict = {"question": question}
        try:
            decomposition = self.decomposer.decompose(tokens)
        except QuestionTooLongError as exc:
            record.update(answer=None, probability=0.0, reason=str(exc))
            return record
        # a chain of more than one element scores above 0: the DP replaces
        # the question itself only on a strict improvement over 0
        if len(decomposition.sequence) > 1:
            record["decomposition"] = {
                "sequence": decomposition.texts,
                "score": decomposition.score,
            }
            result = self.engine.answer_sequence(
                decomposition.sequence, decomposition.mentions, decomposition.walk
            )
            if result.value is None:
                record.update(
                    answer=None,
                    probability=0.0,
                    reason=f"unanswerable at step {result.failed_index}",
                    steps=result.steps,
                )
            else:
                record.update(
                    answer=result.value,
                    probability=result.probability,
                    steps=result.steps,
                )
            return record
        dist = self.engine.answer_distribution(tokens, decomposition.mentions, decomposition.walk)
        top = dist.top()
        if top is None:
            record.update(answer=None, probability=0.0, reason=dist.reason)
            return record
        value, probability = top
        trace = dist.traces.get(value)
        record.update(answer=value, probability=probability)
        if trace is not None:
            record["trace"] = {
                "entity": trace.entity,
                "template": trace.template,
                "predicate_path": list(trace.path),
            }
        return record

    def decompose_record(self, question: str) -> dict:
        tokens = tokenize(question)
        try:
            decomposition = self.decomposer.decompose(tokens)
        except QuestionTooLongError as exc:
            return {"question": question, "sequence": [], "score": 0.0,
                    "primitive_flags": [], "reason": str(exc)}
        # A positive score comes only from a primitive head; no element
        # with a slot is primitive.
        flags = [decomposition.score > 0] + [False] * (len(decomposition.sequence) - 1)
        return {
            "question": question,
            "sequence": decomposition.texts,
            "score": decomposition.score,
            "primitive_flags": flags,
        }
