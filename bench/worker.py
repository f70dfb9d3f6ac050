"""One phase of a benchmark run, in a process of its own.

``python3 worker.py JOB.json`` reads a job written by ``run.py``, runs it
against the program's public functions and writes the result next to the
job. A job is one of two phases, and a process runs only one, so its
``ru_maxrss`` is the peak memory of that phase's program work alone:

- ``train``: ``run_offline`` on the generated world, repeated until the
  job's seconds are spent (at least once). The artifacts are removed before
  every sample, so none is reused from an earlier sample or world.
- ``serve``: ``OnlineSession`` set-ups from the artifacts the train phase
  just built, then a closed loop with one client sending the question list
  in whole rounds through ``answer_record`` until the job's seconds (set-ups
  included) are spent and enough answers are timed. The first round is an untimed
  warm-up; its records are the ones every later round must repeat. Only
  the ``answer_record`` calls are timed; records are compared after each
  round.

The host's speed changes by up to 2x from one second to the next, and the
share of slow time changes over minutes, so a run is too short to average
it out. Both phases therefore time ``calibrate``, a fixed piece of
pure-Python work, about every ``TICK_S``: between answers, and inside a
``run_offline`` sample or a set-up from a timer signal, in the same thread.
Each timed unit is returned with the calibration time around it, and
``run.py`` scales the unit's time by it. The calibrations' own time is not
part of any unit's time.

With tracing on, the first ``run_offline`` sample, the first set-up and one
round after the warm-up run under the tracer; the rest runs untraced.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
from array import array
from pathlib import Path

_WORDS = tuple(f"w{i}" for i in range(64))
TICK_S = 0.1  # between answers, and within a run_offline sample or a set-up
CALIBRATIONS_PER_INSTANT = 3


def calibrate() -> float:
    """Seconds taken by a fixed mix of the operations the program is made
    of: tuple keys, dict updates, string joins and splits, float sums. The
    garbage collector is off meanwhile, so the program's heap, which a full
    collection would walk, does not count."""
    gc.disable()
    t0 = time.perf_counter()
    table: dict[tuple[str, str], float] = {}
    for i in range(3_000):
        key = (_WORDS[i % 64], _WORDS[(i * 7) % 61])
        table[key] = table.get(key, 0.0) + 1.0 / (1 + i % 5)
        " ".join(key).split()
    sum(sorted(table.values()))
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def _instant() -> float:
    return statistics.median(calibrate() for _ in range(CALIBRATIONS_PER_INSTANT))


def _sampled(fn, tick: bool):
    """Call ``fn``, with a timer signal timing ``calibrate`` every TICK_S in
    this thread between the program's bytecodes if ``tick`` (a traced run,
    whose spans must not hold calibrations, has no use for it). Returns the
    result, the seconds ``fn`` took without the calibrations, and the mean
    calibration time over the call and the instants before and after it."""
    calibrations = [_instant()]
    spent = 0.0

    def handler(signum, frame):
        nonlocal spent
        t0 = time.perf_counter()
        calibrations.append(calibrate())
        spent += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, handler)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, TICK_S if tick else 0, TICK_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0 - spent
        signal.signal(signal.SIGALRM, previous)
    calibrations.append(_instant())
    return result, seconds, statistics.fmean(calibrations)


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _traced(tracer, kind: str, label: str, fn):
    tracer.enter(kind, label)
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


def train(job: dict, pipeline, tracer) -> dict:
    config = pipeline.load_config(job["config"])
    artifacts = Path(config.model).parent
    offline_s: list[float] = []
    offline_calibration_s: list[float] = []
    digests: list[str] = []
    report = None
    failed = 0

    def offline():
        try:
            return pipeline.run_offline(config)
        except pipeline.StageError as exc:
            print(f"offline sample failed: {exc}", file=sys.stderr)
            return None

    began = time.perf_counter()
    while not offline_s or time.perf_counter() - began < job["seconds"]:
        shutil.rmtree(artifacts, ignore_errors=True)
        gc.collect()
        if tracer is not None and not offline_s:
            result, seconds, calibration = _sampled(
                lambda: _traced(tracer, "offline", "first", offline), False)
        else:
            result, seconds, calibration = _sampled(offline, tracer is None)
        offline_s.append(seconds)
        offline_calibration_s.append(calibration)
        failed += result is None
        report = result or report
        if artifacts.is_dir():
            digests.append(_digest(artifacts))
    return {"offline_s": offline_s, "offline_calibration_s": offline_calibration_s,
            "digests": digests, "report": report, "attempted": len(offline_s),
            "failed": failed}


def serve(job: dict, pipeline, tracer) -> dict:
    config = pipeline.load_config(job["config"])
    questions = job["questions"]
    clock = time.perf_counter
    began = clock()
    setup_s: list[float] = []
    setup_calibration_s: list[float] = []
    session = None
    for i in range(job["setups"]):
        session = None
        gc.collect()
        if tracer is not None and i == 0:
            session, seconds, calibration = _sampled(
                lambda: _traced(tracer, "setup", "first", lambda: pipeline.OnlineSession(config)),
                False)
        else:
            session, seconds, calibration = _sampled(lambda: pipeline.OnlineSession(config),
                                                     tracer is None)
        setup_s.append(seconds)
        setup_calibration_s.append(calibration)

    answer = session.answer_record
    expected = [answer(q) for q in questions]
    failed = sum(record.get("answer") is None for record in expected)
    attempted = len(expected)
    mismatches = 0
    traced_round_s = None
    if tracer is not None:
        tracer.model = session.model
        tracer.install()
        t0 = time.perf_counter()
        records = []
        for i, q in enumerate(questions):
            tracer.enter("question", str(i))
            records.append(answer(q))
        traced_round_s = time.perf_counter() - t0
        tracer.uninstall()
        attempted += len(records)
        failed += sum(record.get("answer") is None for record in records)
        mismatches += sum(a != b for a, b in zip(records, expected))

    latencies = array("d")
    marks: list[int] = []  # how many answers were timed at each calibration
    instants: list[float] = []
    calibrated = -math.inf
    while clock() - began < job["seconds"] or len(latencies) < job["min_latencies"]:
        records = []
        for q in questions:
            if clock() - calibrated >= TICK_S:
                marks.append(len(latencies))
                instants.append(calibrate())
                calibrated = clock()
            t0 = clock()
            records.append(answer(q))
            latencies.append(clock() - t0)
        attempted += len(records)
        failed += sum(record.get("answer") is None for record in records)
        mismatches += sum(a != b for a, b in zip(records, expected))
    marks.append(len(latencies))
    instants.append(calibrate())
    return {"setup_s": setup_s, "setup_calibration_s": setup_calibration_s,
            "latencies_s": latencies, "latency_marks": marks, "latency_calibration_s": instants,
            "records": expected, "mismatches": mismatches, "traced_round_s": traced_round_s,
            "attempted": attempted, "failed": failed}


def main(job_path: str) -> None:
    job_path = Path(job_path)
    job = json.loads(job_path.read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    from factqa import pipeline

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    result = {"train": train, "serve": serve}[job["phase"]](job, pipeline, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        tracer.write(Path(job["trace_out"]))
    # the latencies stay a compact array until ru_maxrss has been read
    job_path.with_suffix(".out.json").write_text(json.dumps(result, default=list),
                                                 encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
