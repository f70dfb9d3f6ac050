"""factqa benchmark: offline training and online answering over a seeded world.

Run from the root of a checkout:

    python3 bench/run.py --workload online_simple --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke          # every workload once, tiny world

Each run generates a world from ``--seed`` and runs two phases, each in a
worker process of its own (see ``worker.py``): ``train`` repeats
``run_offline`` on that world, then ``serve`` sets up ``OnlineSession`` from
the artifacts just built and answers questions in a closed loop. The
workload decides which phase gets the run's seconds. It checks every output
against ``reference.py`` and prints one JSON object as its last line of
stdout: the end-to-end metrics with ``--trace 0``, the per-layer metrics of
the traced run with ``--trace 1``. It exits non-zero, without a result, when
the program cannot be run or a worker fails. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import world as worlds  # noqa: E402
from reference import Reference, read_expansion, tokenize  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SCALE = 1.0
SMOKE_SCALE = 0.06
SIMPLE_PER_FAMILY = 40
COMPLEX_PER_CHAIN = 24
SETUPS = 5
MIN_LATENCIES = 1000  # so at least ten samples lie beyond the 99th percentile
DEADLINE_S = 170
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    questions: str  # "simple" or "complex"
    primary: str  # the phase that gets the run's seconds: "train" or "serve"


# Every run reports every end-to-end metric, so the phase a workload is not
# about still runs, for SECONDARY_SHARE of the run and in its own process: the
# online workloads train on their world (they need its artifacts anyway), and
# ``offline`` serves the model it has just trained. At 30 s a run, 30% gives
# the secondary phase about four run_offline samples, or five set-ups and
# about 15,000 simple answers.
WORKLOADS = {
    "offline": Workload("simple", "train"),
    "online_simple": Workload("simple", "serve"),
    "online_complex": Workload("complex", "serve"),
}
SECONDARY_SHARE = 0.3


class BenchError(RuntimeError):
    pass


def _worker(job: dict, work: Path, deadline: float) -> dict:
    path = work / f"{job['phase']}.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(path)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the worker did not end within the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"the worker failed (exit {proc.returncode}):\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(path.with_suffix(".out.json").read_text(encoding="utf-8"))


# -- checks -----------------------------------------------------------------


def check(world: worlds.World, questions: list[worlds.Question], config_dir: Path,
          result: dict) -> list[str]:
    """Problems found in the artifacts and answers of a run; empty if none."""
    problems = []
    if len(set(result["digests"])) != 1 or len(result["digests"]) != len(result["offline_s"]):
        problems.append("offline samples did not write identical artifacts")
    report = result["report"] or {}
    expected = {"triples": len(set(world.triples)), "entities": world.entities,
                "qa_pairs": len(world.corpus), "dropped_observations": 0}
    for key, value in expected.items():
        if report.get(key) != value:
            problems.append(f"report {key} = {report.get(key)}, expected {value}")

    artifacts = config_dir / "artifacts"
    ref = Reference(config_dir, artifacts / "world.model.tsv")
    want = ref.expansion(ref.seed_entities(config_dir / "corpus.jsonl"))
    got = read_expansion(artifacts / "world.expansion.tsv")
    if got != want:
        problems.append(f"expansion differs from the reference walk: {len(got - want)} extra, "
                        f"{len(want - got)} missing")

    from factqa.hasharray import StaticHashArray

    index = StaticHashArray.load(artifacts / "world.index")
    for node, surface in world.dictionary:
        if ref.node_ids[node] not in index.lookup(" ".join(tokenize(surface))):
            problems.append(f"index lookup of {surface!r} misses {node}")

    planted = world.planted_templates()
    for template, row in ref.model.items():
        total = math.fsum(row.values())
        if abs(total - 1.0) > TOLERANCE:
            problems.append(f"model row {template!r} sums to {total!r}")
        top = min(row, key=lambda path: (-row[path], path))
        if planted.get(template) != top:
            problems.append(f"model row {template!r} tops at {top}, planted {planted.get(template)}")
    for family in worlds.FAMILIES.values():
        primary = "city" if family.subject == "city" else "person"
        if worlds.planted_template(family, primary) not in ref.model:
            problems.append(f"model has no row for family {family.name}")

    if result["mismatches"]:
        problems.append(f"{result['mismatches']} answers differ from the warm-up round's")
    for q, record in zip(questions, result["records"]):
        if record.get("answer") is None:
            continue  # counted as failed
        if q.chain:
            sequence = record.get("decomposition", {}).get("sequence")
            if sequence != q.chain or record["answer"] != q.answer:
                problems.append(f"{q.text!r}: chain {sequence} -> {record['answer']}, "
                                f"planted {q.chain} -> {q.answer}")
            continue
        expected_answer = ref.answer(q.text)
        if (expected_answer is None or record["answer"] != expected_answer[0]
                or abs(record["probability"] - expected_answer[1]) > TOLERANCE):
            problems.append(f"{q.text!r}: answered {record['answer']} "
                            f"p={record['probability']!r}, reference {expected_answer}")
        elif q.answer is not None and record["answer"] != q.answer:
            problems.append(f"{q.text!r}: answered {record['answer']}, planted {q.answer}")
    return problems


# -- metrics ----------------------------------------------------------------


# The host's speed drifts by up to 2x, within seconds and over minutes (see
# worker.py). Every timed unit is scaled by REFERENCE_CALIBRATION_S over the
# calibration time measured around it, so the metrics read in seconds at the
# speed where ``worker.calibrate`` takes 2.25 ms, typical of the 2-vCPU
# machine the benchmark was tuned on.
REFERENCE_CALIBRATION_S = 0.00225


def scaled(times: list[float], calibration_s: list[float]) -> list[float]:
    return [t * REFERENCE_CALIBRATION_S / c for t, c in zip(times, calibration_s)]


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def end_to_end(result: dict) -> dict:
    marks, calibrations = result["latency_marks"], result["latency_calibration_s"]
    around = [(a + b) / 2 for a, b in zip(calibrations, calibrations[1:])]
    latency_calibration_s = [c for start, stop, c in zip(marks, marks[1:], around)
                             for _ in range(start, stop)]
    latencies = scaled(result["latencies_s"], latency_calibration_s)
    raw_p99 = quantile(result["latencies_s"], 0.99)
    # The slowest answers come from the slow spells, whichever share of the run
    # those take, and the loop slows more than the program there; scaled one
    # by one, the tail would mix the spells' tails by that share. So the tail
    # is scaled as a whole, by the mean calibration around the answers in it.
    tail_calibration_s = statistics.fmean(
        c for t, c in zip(result["latencies_s"], latency_calibration_s) if t >= raw_p99)
    p99 = raw_p99 * REFERENCE_CALIBRATION_S / tail_calibration_s
    print(f"unscaled: offline_s {statistics.median(result['offline_s']):.4f}, setup_s "
          f"{statistics.median(result['setup_s']):.4f}, answer_p50_ms "
          f"{statistics.median(result['latencies_s']) * 1e3:.4f}, answer_p99_ms "
          f"{raw_p99 * 1e3:.4f}, answers_per_s "
          f"{len(latencies) / math.fsum(result['latencies_s']):.2f}", file=sys.stderr)
    return {
        "offline_s": (statistics.median(
            scaled(result["offline_s"], result["offline_calibration_s"])), "s"),
        "setup_s": (statistics.median(
            scaled(result["setup_s"], result["setup_calibration_s"])), "s"),
        "answer_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "answer_p99_ms": (p99 * 1e3, "ms"),
        "answers_per_s": (len(latencies) / math.fsum(latencies), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result: dict, index_path: Path) -> dict:
    spans = result["layers"]["spans"]
    tallies = result["layers"]["tallies"].get("question", {})
    questions = result["layers"]["units"]["question"]
    empty = [0, 0, 0, 0.0, 0.0]

    def row(kind: str, name: str) -> list:
        return spans.get(kind, {}).get(name, empty)

    def total_s(kind: str, name: str) -> float:
        return row(kind, name)[4]

    def per_call_s(name: str) -> float:
        rows = [row("offline", name), row("setup", name)]
        return sum(r[4] for r in rows) / max(1, sum(r[1] for r in rows))

    def self_us(name: str) -> float:
        return row("question", name)[3] / questions * 1e6

    def calls(name: str) -> float:
        return row("question", name)[0] / questions

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    report = result["report"]
    lookup_q, lookup_off, lookup_setup = (row(k, "hasharray.lookup")
                                          for k in ("question", "offline", "setup"))
    extract = row("offline", "corpus.extract")
    templates = tallies.get("concepts.derive_templates", [0.0, 0.0])
    return {
        "pipeline.seed_entities_s": (total_s("offline", "pipeline.seed_entities"), "s"),
        "pipeline.entity_index_s": (total_s("offline", "pipeline.entity_index"), "s"),
        "kb.load_s": (per_call_s("kb.load"), "s"),
        "kb.expand_s": (total_s("offline", "kb.expand"), "s"),
        "kb.expand_paths": (report["expansion_paths"], "count"),
        "kb.value_distribution_us": (self_us("kb.value_distribution"), "us"),
        "kb.value_distribution_calls": (calls("kb.value_distribution"), "count"),
        "hasharray.build_s": (total_s("offline", "hasharray.build"), "s"),
        "hasharray.load_s": (total_s("setup", "hasharray.load"), "s"),
        "hasharray.lookup_calls": (calls("hasharray.lookup"), "count"),
        "hasharray.lookup_us": (self_us("hasharray.lookup"), "us"),
        "hasharray.offline_lookup_calls": (lookup_off[0] + lookup_setup[0], "count"),
        "hasharray.offline_lookup_s": (lookup_off[3] + lookup_setup[3], "s"),
        "hasharray.lookup_hit_ratio": (ratio(lookup_q[2], lookup_q[0]), "ratio"),
        "hasharray.bytes_per_entry": (index_path.stat().st_size / report["index_items"], "B"),
        "corpus.load_s": (per_call_s("corpus.load"), "s"),
        "corpus.kb_mentions_calls": (calls("corpus.kb_mentions"), "count"),
        "corpus.kb_mentions_us": (self_us("corpus.kb_mentions"), "us"),
        "corpus.extract_s": (total_s("offline", "corpus.extract"), "s"),
        "corpus.candidate_values_s": (total_s("offline", "corpus.candidate_values"), "s"),
        "corpus.extract_yield": (ratio(extract[2], extract[0]), "ratio"),
        "concepts.question_concepts_us": (self_us("concepts.question_concepts"), "us"),
        "concepts.templates_derived": (templates[0] / questions, "count"),
        "concepts.template_row_ratio": (ratio(templates[1], templates[0]), "ratio"),
        "learn.trainset_build_s": (total_s("offline", "learn.trainset_build"), "s"),
        "learn.observations": (report["observations"], "count"),
        "learn.em_iterations": (report["iterations"], "count"),
        "learn.e_step_s": (total_s("offline", "learn.e_step"), "s"),
        "learn.m_step_s": (total_s("offline", "learn.m_step"), "s"),
        "learn.log_likelihood_s": (total_s("offline", "learn.log_likelihood"), "s"),
        "learn.em_s_per_iteration": (
            ratio(total_s("offline", "learn.learn"), report["iterations"]), "s"),
        "learn.model_load_s": (total_s("setup", "learn.model_load"), "s"),
        "engine.answer_distribution_us": (self_us("engine.answer_distribution"), "us"),
        "engine.answer_distribution_calls": (calls("engine.answer_distribution"), "count"),
        "engine.enumerations": (
            tallies.get("engine.answer_distribution", [0.0])[0] / questions, "count"),
        "engine.answer_sequence_us": (self_us("engine.answer_sequence"), "us"),
        "decompose.pattern_index_build_s": (
            total_s("setup", "decompose.pattern_index_build"), "s"),
        "decompose.is_primitive_calls": (calls("decompose.is_primitive"), "count"),
        "decompose.is_primitive_us": (self_us("decompose.is_primitive"), "us"),
        "decompose.decompose_us": (self_us("decompose.decompose"), "us"),
    }


def overhead(result: dict) -> dict:
    """Traced unit minus the median of the untraced ones of the same run."""
    offline, setups = result["offline_s"], result["setup_s"]
    rounds = len(result["latencies_s"]) / len(result["records"])
    untraced_round_s = math.fsum(result["latencies_s"]) / rounds
    return {
        "offline_s": offline[0] - statistics.median(offline[1:] or offline),
        "setup_s": setups[0] - statistics.median(setups[1:] or setups),
        "round_s": result["traced_round_s"] - untraced_round_s,
        "untraced_round_s": untraced_round_s,
    }


def merge(train: dict, serve: dict, primary: str) -> dict:
    """One result from the two phases; memory is the primary phase's."""
    result = {**train, **serve}
    result["attempted"] = train["attempted"] + serve["attempted"]
    result["failed"] = train["failed"] + serve["failed"]
    result["peak_rss_mb"] = (train if primary == "train" else serve)["peak_rss_mb"]
    if "layers" in train:
        layers = {key: {**train["layers"][key], **serve["layers"][key]}
                  for key in ("spans", "units", "tallies")}
        result["layers"] = layers
    return result


# -- one run ----------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = SCALE,
        min_latencies: int = MIN_LATENCIES) -> dict:
    if not (SRC / "factqa" / "__init__.py").is_file():
        raise BenchError(f"the program's source is not at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    world = worlds.generate(seed, scale)
    config = world.write(work / "world")
    if workload.questions == "simple":
        questions = worlds.simple_questions(world, seed, SIMPLE_PER_FAMILY)
    else:
        questions = worlds.complex_questions(world, seed, COMPLEX_PER_CHAIN)

    share = {workload.primary: 1 - SECONDARY_SHARE}
    job = {"src": str(SRC), "config": str(config), "trace": trace}
    train = _worker({**job, "phase": "train",
                     "seconds": seconds * share.get("train", SECONDARY_SHARE),
                     "trace_out": str(OUT / "traces" / f"{name}.train.tsv.gz")}, work, deadline)
    serve = _worker({**job, "phase": "serve",
                     "seconds": seconds * share.get("serve", SECONDARY_SHARE),
                     "setups": SETUPS, "min_latencies": min_latencies,
                     "questions": [q.text for q in questions],
                     "trace_out": str(OUT / "traces" / f"{name}.serve.tsv.gz")}, work, deadline)
    result = merge(train, serve, workload.primary)
    problems = check(world, questions, config.parent, result)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    if trace:
        metrics = per_layer(result, config.parent / "artifacts" / "world.index")
        print("tracing overhead: " + json.dumps(overhead(result)), file=sys.stderr)
    else:
        metrics = end_to_end(result)
    shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> int:
    """Every workload, untraced and traced, on a tiny world: all checks on."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            t0 = time.monotonic()
            result = run(name, seed=7, seconds=0, trace=trace, scale=SMOKE_SCALE,
                         min_latencies=1)
            good = result["correct"] and not result["failed"]
            ok &= good
            print(f"smoke {name} trace={int(trace)}: {'ok' if good else 'FAILED'} "
                  f"({result['attempted']} operations, {time.monotonic() - t0:.1f} s)")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload on a tiny world")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
