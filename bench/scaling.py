"""Offline stage times at several world scales, with fitted scaling exponents.

    python3 bench/scaling.py [--seed 1] [--scales 0.5,1,2,4]

For each scale it generates a world, runs one traced ``run_offline`` and
one traced ``OnlineSession`` set-up (each phase in its worker process, as a
benchmark run does) and reads each stage's total time from the spans. The exponent
of a stage is the least-squares slope of log(time) against log(QA pairs).
"""

from __future__ import annotations

import argparse
import math
import shutil
import sys
import time

import run as bench
import world as worlds

STAGES = (
    ("load KB", "offline", "kb.load"),
    ("load corpus", "offline", "corpus.load"),
    ("entity index", "offline", "pipeline.entity_index"),
    ("seed spotting", "offline", "pipeline.seed_entities"),
    ("expansion", "offline", "kb.expand"),
    ("training set", "offline", "learn.trainset_build"),
    ("EM", "offline", "learn.learn"),
    ("run_offline", "offline", "pipeline.run_offline"),
    ("PatternIndex", "setup", "decompose.pattern_index_build"),
    ("OnlineSession", "setup", "pipeline.setup"),
)


def slope(xs: list[float], ys: list[float]) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scales", default="0.5,1,2,4")
    args = parser.parse_args()
    sys.path.insert(0, str(bench.SRC))
    rows = []
    for scale in (float(s) for s in args.scales.split(",")):
        work = bench.OUT / f"scaling-{scale}"
        shutil.rmtree(work, ignore_errors=True)
        world = worlds.generate(args.seed, scale)
        config = world.write(work / "world")
        questions = worlds.simple_questions(world, args.seed, bench.SIMPLE_PER_FAMILY)
        job = {"src": str(bench.SRC), "config": str(config), "trace": True, "seconds": 0,
               "trace_out": str(bench.OUT / "traces" / "scaling.tsv.gz")}
        deadline = time.monotonic() + 3600
        train = bench._worker({**job, "phase": "train"}, work, deadline)
        serve = bench._worker({**job, "phase": "serve", "setups": 1, "min_latencies": 1,
                               "questions": [q.text for q in questions]}, work, deadline)
        result = bench.merge(train, serve, "train")
        spans = result["layers"]["spans"]
        times = {name: spans[kind][name][4] for _, kind, name in STAGES}
        rows.append((scale, result["report"], times))
        shutil.rmtree(work, ignore_errors=True)

    pairs = [r["qa_pairs"] for _, r, _ in rows]
    print("| scale | triples | QA pairs | EM iterations | "
          + " | ".join(label for label, _, _ in STAGES) + " |")
    print("|---" * (4 + len(STAGES)) + "|")
    for scale, report, times in rows:
        print(f"| {scale:g} | {report['triples']} | {report['qa_pairs']} | {report['iterations']} | "
              + " | ".join(f"{times[name]:.3f}" for _, _, name in STAGES) + " |")
    print("| exponent | | | | " + " | ".join(
        f"{slope(pairs, [t[name] for _, _, t in rows]):.2f}" for _, _, name in STAGES) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
