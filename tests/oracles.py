"""Plain reference implementations the program is checked against.

- The corpus as it stood before it was grouped as it was read: its
  distinct pairs, one ``QaPair`` each.
- The mention loops as they stood before every question's spans were
  probed once into a table: a lazy greedy walk that probes the index span
  by span, and an all-span loop that probes every span again, for each
  question of a corpus too. Neither skips a span for its length or its
  tokens.
- Value extraction's answer span loop: every span, of any length, against
  every node's text and every dictionary row, with no table.
- A KB's triples read off its CSR; a depth-first path finder between two
  nodes over them, next to the expansion's breadth-first walk, and a value
  walk over the raw triples, next to the CSR walk.
- Concept priors and conceptualization as they stood before each
  entity's prior was cached: the isA edges scanned, the prior normalized
  and the token loop run on every call.
- The online template walk as it stood before the model's templates were
  indexed by shape: each mention's templates derived from its concept
  distribution, sorted by text, and kept where the model has a row.
- The training set item by item, as it stood before observations were
  folded into candidate groups as they were extracted: one
  ``TrainingItem`` per observation with its template and path
  probabilities derived afresh, its candidates, and the grouping of items
  with equal candidates. Next to it, the per-observation view of a folded
  set: each observation's candidates and responsibilities, read from its
  group.
- A counting estimate of P(path | template), next to EM; the M-step as it
  stood before items with equal candidates were summed as one group (one
  ``w * r`` term per item); the log-likelihood summed item by item and
  group by group; a brute-force posterior over each item's template and
  path grid; and plain EM, as it stood before SQUAREM, over the same
  groups.
- Pattern validity counted over every span of every corpus question, as it
  stood before f_o was counted for the kept patterns only, and an
  exhaustive recursive decomposition, next to the DP.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, log
from typing import Iterable, Mapping, Sequence

from factqa.concepts import ConceptGraph, derive_templates
from factqa.corpus import (
    CorpusStats, EntityValueExtractor, QaPair, Tokens, lookup_tokens, normalize_text,
)
from factqa.decompose import SLOT, Decomposer, Decomposition, QuestionTooLongError
from factqa.engine import AnswerEngine, SupportedTemplate
from factqa.hasharray import StaticHashArray
from factqa.kb import NAME_PREDICATE, KnowledgeBase, PredicatePath
from factqa.learn import (
    Assignment, LearnResult, Posterior, PredicateModel, TrainingSet, e_step, init_theta,
    log_likelihood, m_step,
)

BRUTE_FORCE_LIMIT = 8


def find_mentions(
    index: StaticHashArray, tokens: Tokens, max_span: int = 5
) -> list[tuple[tuple[int, int], list[int]]]:
    """Greedy left-to-right longest match, probing as it walks."""
    toks = list(tokens)
    n = len(toks)
    out: list[tuple[tuple[int, int], list[int]]] = []
    i = 0
    while i < n:
        matched = None
        for j in range(min(n, i + max_span), i, -1):
            candidates = index.lookup(" ".join(toks[i:j]))
            if candidates:
                matched = ((i, j), sorted(set(candidates)))
                break
        if matched is None:
            i += 1
        else:
            out.append(matched)
            i = matched[0][1]
    return out


def probe_every_span(
    index: StaticHashArray, tokens: Tokens, max_span: int = 5
) -> dict[tuple[int, int], list[int]]:
    """Sorted unique payloads of every span of at most ``max_span`` tokens
    that hits the index."""
    toks = list(tokens)
    out: dict[tuple[int, int], list[int]] = {}
    for i in range(len(toks)):
        for j in range(i + 1, min(len(toks), i + max_span) + 1):
            candidates = index.lookup(" ".join(toks[i:j]))
            if candidates:
                out[(i, j)] = sorted(set(candidates))
    return out


def candidate_values(
    kb: KnowledgeBase, dictionary: list[tuple[str, str]], answer: Tokens
) -> set[str]:
    """KB nodes named by an answer span, by normalized node text or by a
    dictionary row whose surface has a word and normalizes to the span."""
    found: set[str] = set()
    n = len(answer)
    for i in range(n):
        for j in range(i + 1, n + 1):
            text = " ".join(answer[i:j])
            found.update(node for node in kb.nodes if normalize_text(node) == text)
            found.update(node for node, surface in dictionary
                         if text and normalize_text(surface) == text)
    return {v for v in found if v in kb.nodes}


def kb_mentions(
    kb: KnowledgeBase, index: StaticHashArray, tokens: Tokens, max_span: int = 5
) -> list[tuple[tuple[int, int], str]]:
    """``find_mentions`` on the lookup tokens, then the KB entity filter."""
    out: list[tuple[tuple[int, int], str]] = []
    seen: set[str] = set()
    for span, payloads in find_mentions(index, lookup_tokens(tokens), max_span):
        for payload in payloads:
            if not kb.has_node_id(payload):
                continue
            node = kb.node_name(payload)
            if kb.is_entity(node) and node not in seen:
                seen.add(node)
                out.append((span, node))
    return out


def mention_spans(
    kb: KnowledgeBase, index: StaticHashArray, tokens: Tokens, max_span: int = 5
) -> set[tuple[int, int]]:
    """Every span whose lookup text has a payload naming a KB entity."""
    probe = lookup_tokens(tokens)
    spans: set[tuple[int, int]] = set()
    n = len(tokens)
    for i in range(n):
        for j in range(i + 1, min(n, i + max_span) + 1):
            for payload in index.lookup(" ".join(probe[i:j])):
                if kb.has_node_id(payload) and kb.is_entity(kb.node_name(payload)):
                    spans.add((i, j))
                    break
    return spans


def entity_spans(
    kb: KnowledgeBase, index: StaticHashArray, questions: Iterable[Tokens]
) -> dict[Tokens, set[tuple[int, int]]]:
    """``mention_spans`` of each question, with no bound on a span's length."""
    return {question: mention_spans(kb, index, question, len(question)) for question in questions}


def pairs_of(corpus: CorpusStats) -> list[QaPair]:
    """Each distinct (question, answer) pair of a grouped corpus with its
    count, question by question."""
    return [QaPair(question, answer, count)
            for question, answers in corpus.answer_counts.items()
            for answer, count in answers.items()]


def triples_of(kb: KnowledgeBase) -> list[tuple[str, str, str]]:
    """Every triple of ``kb`` in edge order, which is sorted triple order."""
    return [
        (kb.node_name(node), kb.predicates[kb._edge_predicates[e]],
         kb.node_name(kb._edge_objects[e]))
        for node in range(len(kb.nodes))
        for e in range(kb._offsets[node], kb._offsets[node + 1])
    ]


def predicates_between(
    kb: KnowledgeBase,
    entity: str,
    value: str,
    k_max: int,
    *,
    name_restriction: bool = False,
    name_symbol: str = NAME_PREDICATE,
) -> list[PredicatePath]:
    """All predicate paths of length <= k_max leading from entity to value.

    Paths are returned shortest first, then lexicographically. With the
    name restriction on, paths of length >= 2 must end with the name
    predicate.
    """
    adjacency: dict[str, dict[str, list[str]]] = {}
    for s, p, o in triples_of(kb):
        adjacency.setdefault(s, {}).setdefault(p, []).append(o)
    found: set[PredicatePath] = set()

    def walk(node: str, prefix: PredicatePath) -> None:
        if len(prefix) == k_max:
            return
        for pred, objs in adjacency.get(node, {}).items():
            path = prefix + (pred,)
            if value in objs:
                found.add(path)
            for obj in objs:
                walk(obj, path)

    if k_max >= 1:
        walk(entity, ())
    if name_restriction:
        found = {p for p in found if len(p) < 2 or p[-1] == name_symbol}
    return sorted(found, key=lambda p: (len(p), p))


def value_distribution(
    triples: Iterable[tuple[str, str, str]], entity: str, path: PredicatePath
) -> dict[str, float]:
    """Uniform over the distinct nodes that ``path`` reaches from ``entity``,
    by a scan of every triple per step; sorted by node."""
    frontier = {entity}
    for pred in path:
        frontier = {o for s, p, o in triples if p == pred and s in frontier}
    return {v: 1.0 / len(frontier) for v in sorted(frontier)}


def concept_prior(edges: Iterable[tuple[str, str, float]], entity: str) -> dict[str, float]:
    """The entity's isA weights, summed per concept in edge order and
    normalized, by concept; empty if it has none."""
    row: dict[str, float] = {}
    for e, concept, weight in edges:
        if e == entity:
            row[concept] = row.get(concept, 0.0) + float(weight)
    total = fsum(row.values())
    return {c: w / total for c, w in sorted(row.items())}


def conceptualize(
    edges: Iterable[tuple[str, str, float]],
    context_weights: Mapping[tuple[str, str], float],
    tokens: Tokens,
    entity: str,
    mention: tuple[int, int] | None = None,
) -> dict[str, float]:
    """P(c | q, e): the entity's isA weights normalized, each times 1 plus
    the context weights of the tokens outside the mention (at least 0),
    normalized; empty if no concept keeps a positive score."""
    prior = concept_prior(edges, entity)
    if not prior:
        return {}
    toks = list(tokens)
    if mention is not None:
        toks = toks[: mention[0]] + toks[mention[1]:]
    scores = {
        c: p * max(0.0, 1.0 + fsum(context_weights.get((c, tok), 0.0) for tok in toks))
        for c, p in prior.items()
    }
    total = fsum(scores.values())
    return {c: s / total for c, s in scores.items()} if total > 0 else {}


def question_concepts(
    edges: Iterable[tuple[str, str, float]],
    context_weights: Mapping[tuple[str, str], float],
    overrides: Mapping[str, Mapping[str, float]],
    tokens: Tokens,
    entity: str,
    mention: tuple[int, int] | None = None,
) -> dict[str, float]:
    """The question's override if it has one, else ``conceptualize``, else
    the universal concept alone."""
    override = overrides.get(" ".join(tokens))
    if override:
        return dict(override)
    return conceptualize(edges, context_weights, tokens, entity, mention) or {"entity": 1.0}


def supported_templates(
    engine: AnswerEngine, tokens: Tokens, mentions: list[tuple[tuple[int, int], str]]
) -> list[SupportedTemplate]:
    """Per mention, every template ``derive_templates`` gives it, in text
    order, that the model has a row for."""
    out: list[SupportedTemplate] = []
    for span, entity in mentions:
        concept_dist = engine.concepts.question_concepts(tokens, entity, span)
        templates = derive_templates(tokens, span, concept_dist)
        for text, p_template in sorted((t.text, p) for t, p in templates.items()):
            row = engine.model.row(text)
            if row:
                out.append((entity, text, p_template, row))
    return out


@dataclass(frozen=True)
class TrainingItem:
    """One observation plus the per-observation factors feeding f(x, z)."""

    question: Tokens
    entity: str
    value: str
    weight: float
    p_q: float
    p_e: float
    template_probs: Mapping[str, float]
    value_probs: Mapping[PredicatePath, float]

    @property
    def candidates(self) -> tuple[tuple[Assignment, float], ...]:
        """All assignments z with positive factor f(x, z), templates then
        paths in sorted order."""
        out = []
        for template in sorted(self.template_probs):
            pt = self.template_probs[template]
            if pt <= 0:
                continue
            for path in sorted(self.value_probs):
                pv = self.value_probs[path]
                if pv <= 0:
                    continue
                out.append(((template, path), self.p_q * self.p_e * pt * pv))
        return tuple(out)


def training_items(
    corpus: CorpusStats,
    mentions: Mapping[Tokens, list[tuple[tuple[int, int], str]]],
    extractor: EntityValueExtractor,
    concepts: ConceptGraph,
    refine: bool = True,
) -> list[TrainingItem]:
    """``TrainingSet.build`` item by item: the grouped corpus read question
    by question, every pair's answer matched, and every item's templates
    and path probabilities derived, afresh."""
    kb = extractor.kb
    items = []
    for question, answers in corpus.answer_counts.items():
        for answer, count in answers.items():
            pair = QaPair(question, answer, count)
            found = mentions[question]
            values = extractor.candidate_values(answer) if found else set()
            extracted = sorted(extractor.extract(pair, found, values, refine))
            if not extracted:
                continue
            p_e = 1.0 / len({e for e, _ in extracted})
            p_q = corpus.p_q(question)
            mass = (1.0 / len(extracted)) * corpus.p_a(question, answer) * p_q
            for entity, value in extracted:
                span = next(span for span, e in found if e == entity)
                concept_dist = concepts.question_concepts(question, entity, span)
                template_probs = {
                    t.text: prob
                    for t, prob in derive_templates(question, span, concept_dist).items()
                }
                value_probs = {
                    path: kb.value_distribution(entity, path).get(value, 0.0)
                    for path, _ in extractor.link((entity, value))[1]
                }
                items.append(TrainingItem(
                    question, entity, value, mass, p_q, p_e, template_probs, value_probs
                ))
    return items


def fold(items: Iterable[TrainingItem]) -> TrainingSet:
    """The items filed one by one into a training set."""
    training = TrainingSet()
    for item in items:
        training.add(
            (item.question, item.entity, item.value, item.weight), item.p_q, item.p_e,
            training.template_row(item.template_probs), training.path_row(item.value_probs),
        )
    return training


def grouped(
    items: Sequence[TrainingItem],
) -> tuple[list[Assignment], list[tuple[tuple[int, ...], tuple[float, ...], list[int]]]]:
    """Every assignment numbered in order of first appearance, and the items
    grouped by equal candidates, groups in order of their first member."""
    assignments: list[Assignment] = []
    number: dict[Assignment, int] = {}
    groups: dict[tuple, list[int]] = {}
    for i, item in enumerate(items):
        candidates = item.candidates
        for z, _ in candidates:
            if z not in number:
                number[z] = len(assignments)
                assignments.append(z)
        key = (tuple(number[z] for z, _ in candidates), tuple(f for _, f in candidates))
        groups.setdefault(key, []).append(i)
    return assignments, [(*key, members) for key, members in groups.items()]


def _group_of_each(training: TrainingSet) -> list[int]:
    group_of = [0] * len(training)
    for g, (_, _, members) in enumerate(training.groups):
        for i in members:
            group_of[i] = g
    return group_of


def item_candidates(training: TrainingSet) -> list[tuple[tuple[Assignment, float], ...]]:
    """Each observation's candidates, read from its group."""
    vectors = [
        tuple((training.assignments[a], f) for a, f in zip(ids, factors))
        for ids, factors, _ in training.groups
    ]
    return [vectors[g] for g in _group_of_each(training)]


def item_responsibilities(
    training: TrainingSet, posterior: Posterior
) -> list[dict[Assignment, float] | None]:
    """Each observation's responsibilities, read from its group."""
    return [posterior.responsibilities[g] for g in _group_of_each(training)]


def posterior_oracle(
    items: Iterable[TrainingItem], model: PredicateModel
) -> list[dict[Assignment, float] | None]:
    """Brute-force Bayes: enumerate the full template x path grid per
    observation and normalize by the plain sum."""
    out = []
    for item in items:
        scores = {}
        for t in sorted(item.template_probs):
            for p in sorted(item.value_probs):
                s = (
                    item.p_q
                    * item.p_e
                    * item.template_probs[t]
                    * item.value_probs[p]
                    * model.prob(t, p)
                )
                if s > 0:
                    scores[(t, p)] = s
        total = sum(scores.values())
        out.append({z: s / total for z, s in scores.items()} if total > 0 else None)
    return out


def log_likelihood_by_item(items: Iterable[TrainingItem], model: PredicateModel) -> float:
    """The weighted log marginal summed item by item, each from its own
    candidate list."""
    terms = []
    for item in items:
        total = fsum(f * model.prob(*z) for z, f in item.candidates)
        if total > 0:
            terms.append(item.weight * log(total))
    return fsum(terms)


def log_likelihood_by_group(items: Sequence[TrainingItem], model: PredicateModel) -> float:
    """The weighted log marginal summed group by group (``grouped``), each
    group's weights folded first."""
    assignments, groups = grouped(items)
    terms = []
    for ids, factors, members in groups:
        total = fsum(f * model.prob(*assignments[a]) for a, f in zip(ids, factors))
        if total > 0:
            terms.append(fsum(items[i].weight for i in members) * log(total))
    return fsum(terms)


def counting_baseline(items: Iterable[TrainingItem]) -> PredicateModel:
    """Counting construction: rows proportional to
    sum_i weight_i * P(t|q_i,e_i) * P(p|e_i,v_i).

    P(p|e,v) normalizes P(v|e,p) over the paths connecting the pair.
    Independent of the EM loop.
    """
    acc: dict[str, dict[PredicatePath, list[float]]] = {}
    for item in items:
        connecting = {p: v for p, v in item.value_probs.items() if v > 0}
        if not connecting:
            continue
        norm = fsum(connecting.values())
        for template, pt in item.template_probs.items():
            if pt <= 0:
                continue
            for path, pv in connecting.items():
                acc.setdefault(template, {}).setdefault(path, []).append(
                    item.weight * pt * (pv / norm)
                )
    rows: dict[str, dict[PredicatePath, float]] = {}
    for template, by_path in acc.items():
        sums = {path: fsum(terms) for path, terms in by_path.items()}
        total = fsum(sums.values())
        if total <= 0:
            continue
        rows[template] = {path: s / total for path, s in sums.items()}
    return PredicateModel(rows)


def m_step_item_by_item(training: TrainingSet, posterior: Posterior) -> PredicateModel:
    """Row-renormalized responsibility mass, each z's mass the ``fsum`` of
    ``weight * r`` over the observations one by one."""
    terms: dict[Assignment, list[float]] = {}
    responsibilities = item_responsibilities(training, posterior)
    for observation, resp in zip(training.observations, responsibilities):
        for z, r in (resp or {}).items():
            terms.setdefault(z, []).append(observation[3] * r)
    sums: dict[str, dict[PredicatePath, float]] = {}
    for (template, path), zterms in terms.items():
        sums.setdefault(template, {})[path] = fsum(zterms)
    rows: dict[str, dict[PredicatePath, float]] = {}
    for template, by_path in sums.items():
        total = fsum(by_path.values())
        if total > 0:
            rows[template] = {path: s / total for path, s in by_path.items()}
    return PredicateModel(rows)


def learn_plain(
    training: TrainingSet, max_iters: int = 100, epsilon: float = 1e-6
) -> LearnResult:
    """Plain EM over the groups: alternate E and M steps from the uniform
    initialization until the max-abs parameter change falls below epsilon
    or max_iters is hit; ``ll_history`` holds the log-likelihood of every
    model visited."""
    model = init_theta(training)
    if not len(model):
        return LearnResult(model, 0, 0.0, len(training))
    history = []
    dropped = 0
    iterations = 0
    for _ in range(max_iters):
        posterior = e_step(training, model)
        history.append(posterior.log_likelihood)
        dropped = posterior.dropped
        new_model = m_step(training, posterior)
        iterations += 1
        delta = max(abs(model.prob(*z) - new_model.prob(*z)) for z in training.assignments)
        model = new_model
        if delta < epsilon:
            break
    history.append(log_likelihood(training, model))
    return LearnResult(model, iterations, history[-1], dropped, history)


def pattern_counts(
    frequency: Mapping[Tokens, int], entity_spans: Mapping[Tokens, Iterable[tuple[int, int]]]
) -> dict[Tokens, tuple[int, int]]:
    """(f_v, f_o) of every pattern with f_v > 0, f_o counted by building
    every pattern that any span of each question generates."""
    f_v: dict[Tokens, int] = {}
    for question, spans in entity_spans.items():
        size = len(question)
        valid = {question[:i] + (SLOT,) + question[j:] for i, j in spans if j - i < size}
        for pattern in valid:
            f_v[pattern] = f_v.get(pattern, 0) + frequency[question]
    f_o = dict.fromkeys(f_v, 0)
    for question, n in frequency.items():
        size = len(question)
        patterns = {
            question[:i] + (SLOT,) + question[j:]
            for i in range(size)
            for j in range(i + 1, size + 1)
        }
        for pattern in patterns & f_o.keys():
            f_o[pattern] += n
    return {pattern: (f_v[pattern], f_o[pattern]) for pattern in f_v}


def decompose_bruteforce(decomposer: Decomposer, tokens: Tokens) -> Decomposition:
    """Exhaustive recursive enumeration of chains, scored like the DP:
    inner spans longest first, then leftmost, and a strict improvement wins."""
    question = tuple(tokens)
    if len(question) > BRUTE_FORCE_LIMIT:
        raise QuestionTooLongError(len(question), BRUTE_FORCE_LIMIT)

    def recurse(sub: Tokens) -> tuple[float, tuple[Tokens, ...]]:
        score = 1.0 if decomposer.is_primitive(sub) else 0.0
        sequence: tuple[Tokens, ...] = (sub,)
        for length in range(len(sub) - 1, 0, -1):
            for a in range(len(sub) - length + 1):
                b = a + length
                pattern = sub[:a] + (SLOT,) + sub[b:]
                p_pattern = decomposer.patterns.validity(pattern)[2]
                if p_pattern <= 0:
                    continue
                inner_score, inner_seq = recurse(sub[a:b])
                candidate = p_pattern * inner_score
                if candidate > score:
                    score = candidate
                    sequence = inner_seq + (pattern,)
        return score, sequence

    if not question:
        return Decomposition([()], 0.0)
    score, sequence = recurse(question)
    return Decomposition(list(sequence), score)
