"""The benchmark's worker processes, each run once against this checkout.

``perfbench/sut.py`` wraps the program's functions named in
``perfbench/tracing.TARGETS``, and ``perfbench/calibrate.py`` calls the
program's dataset, training, model-file and server functions directly; a
renamed or deleted one fails here rather than in the benchmark.  The runs
write nothing under ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shmlink import mlp

ROOT = Path(__file__).resolve().parent.parent


def run_worker(script: str, args: list[str], commands: list[dict]) -> list[dict]:
    """The documents ``perfbench/<script>`` writes for ``commands``, one per stdout line;
    none may be an error report."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / script), *args],
        input="".join(json.dumps(c) + "\n" for c in commands), capture_output=True, text=True,
        cwd=ROOT, timeout=120, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert result.returncode == 0, result.stderr
    docs = [json.loads(line) for line in result.stdout.splitlines()]
    assert not any("error" in doc for doc in docs), result.stderr
    return docs


def test_traced_sut_answers_a_probe_with_the_model_bits(tmp_path):
    model = mlp.init_model(2, 8, mu=np.array([47.0, 120.0]), sigma=np.ones(2),
                           rng=np.random.default_rng(0))
    model_path = tmp_path / "model.json"
    mlp.save_model(model, model_path)
    rows = [[47.0, 120.0], [47.5, 119.25]]
    ready, probe, quit_ = run_worker(
        "sut.py", [str(tmp_path), str(model_path), "every", "1", str(tmp_path / "spans.csv")],
        [{"cmd": "probe", "rows": rows}, {"cmd": "quit"}])
    assert ready["ready"] is True
    assert [p.hex() for p in probe["predictions"]] == [mlp.forward(model, r).hex() for r in rows]
    assert quit_["quit"] is True


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="the benchmark places its workers with os.sched_getaffinity")
def test_calibrate_worker_runs_a_round_with_every_check_true(tmp_path):
    ready, run, quit_ = run_worker("calibrate.py", ["0"], [
        {"cmd": "run", "seed": 5, "seconds": 1.0, "workdir": str(tmp_path),
         "spans": str(tmp_path / "spans.csv")},
        {"cmd": "quit"}])
    assert ready["ready"] is True
    assert quit_["quit"] is True
    assert run["checks"] and all(run["checks"].values()), run["checks"]
    assert run["failed"] == 0 and run["attempted"] > 0
