"""The benchmark's system under test, run once against this checkout with tracing on.

``perfbench/sut.py`` wraps the program's functions named in
``perfbench/tracing.TARGETS``; a renamed or deleted one fails here rather
than in the benchmark.  The run writes nothing under ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from shmlink import mlp

ROOT = Path(__file__).resolve().parent.parent


def test_traced_sut_answers_a_probe_with_the_model_bits(tmp_path):
    model = mlp.init_model(2, 8, mu=np.array([47.0, 120.0]), sigma=np.ones(2),
                           rng=np.random.default_rng(0))
    model_path = tmp_path / "model.json"
    mlp.save_model(model, model_path)
    rows = [[47.0, 120.0], [47.5, 119.25]]
    commands = [{"cmd": "probe", "rows": rows}, {"cmd": "quit"}]
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "sut.py"), str(tmp_path), str(model_path),
         "every", "1", str(tmp_path / "spans.csv")],
        input="".join(json.dumps(c) + "\n" for c in commands), capture_output=True, text=True,
        cwd=ROOT, timeout=60, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert result.returncode == 0, result.stderr
    ready, probe, quit_ = [json.loads(line) for line in result.stdout.splitlines()]
    assert ready["ready"] is True
    assert "error" not in probe and "error" not in quit_, result.stderr
    assert [p.hex() for p in probe["predictions"]] == [mlp.forward(model, r).hex() for r in rows]
    assert quit_["quit"] is True
