"""
Strain regressor: grid search, plateau, persistence
===================================================

Trains the 3-layer network on the bundled synthetic dataset (resistance
features, standardized strain target, 1% noise).  Features are standardized
by the fitted normalizer; the target is used as ingested.  The loss plateaus
within the first couple hundred epochs; the selected model round-trips
through its JSON document bit-exactly.
"""

import tempfile
from pathlib import Path

from shmlink.dataset import read_table_csv
from shmlink.mlp import HyperGrid, TrainData, forward, grid_search, load_model, save_model

DATA = Path(__file__).parent.parent / "data" / "synthetic_2ch.csv"

records = read_table_csv(DATA.read_text(encoding="utf-8"))
data = TrainData.from_records(records, train_fraction=0.8)
print(f"{len(records)} records -> {len(data.train_y)} train / {len(data.test_y)} test")

grid = HyperGrid(hidden_widths=(8, 16), learning_rates=(1e-2, 1e-3),
                 batch_sizes=(32,), max_epochs=450)
config, model, report = grid_search(data, grid, seed=0)

print(f"\nselected: width {config.hidden_width}, rate {config.learning_rate}, "
      f"batch {config.batch_size}")
print(f"test MSE {report.test_mse:.5f}, test MAE {report.test_mae:.5f}, "
      f"stopped after {report.epochs_run} epochs")

losses = report.epoch_losses
marks = [0, 10, 50, 100, 200, min(report.epochs_run, 400)]
print("\nloss trajectory:")
for e in marks:
    print(f"  epoch {e:4d}: {losses[e]:.6f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    x = data.test_x[0]
    assert forward(model, x) == forward(loaded, x)
    print(f"\nsaved {path.stat().st_size} bytes; reloaded forward output bit-identical")
