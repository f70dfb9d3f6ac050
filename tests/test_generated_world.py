"""The answer records of a generated world, pinned across commits.

The world is the one the CI workflow checks for hash-seed independence: 60
people from the benchmark's generator (``bench/world.py``, imported
read-only), with its 36 simple and 40 complex benchmark questions. The
digest covers the records as ``factqa repl`` prints them, so a change that
alters any answer, probability, trace, step or reason fails here.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from factqa.pipeline import OnlineSession, load_config, run_offline

BENCH = Path(__file__).resolve().parent.parent / "bench"

RECORDS_SHA256 = "a16fbb335e83766e6fd3ecb1446295d0872e5a37eeb5341b4c4f52a6aa1b5b49"


def test_answer_records_of_the_ci_world_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import world

    generated = world.generate(1, 0.06)
    questions = world.simple_questions(generated, 1, 4) + world.complex_questions(generated, 1, 4)
    assert len(questions) == 76
    config_file = generated.write(tmp_path / "world")
    config = load_config(config_file)
    run_offline(config, config_file)
    session = OnlineSession(config)
    records = "".join(json.dumps(session.answer_record(q.text), sort_keys=True) + "\n"
                      for q in questions)
    assert hashlib.sha256(records.encode("utf-8")).hexdigest() == RECORDS_SHA256
