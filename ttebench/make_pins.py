"""Regenerate pins.json, the seeded references the checks compare to.

    python3 ttebench/make_pins.py

For every build city variant it builds each build phase's disk dataset,
recording the dataset fingerprint and the matched-path digest, and it
runs one training job, recording the validation MAE. Run it only when a
change is meant to alter the program's outputs; the pins hold for one
BLAS thread (which this script sets, as run.py does).
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import stages  # noqa: E402
from repro.datagen import storage  # noqa: E402


def main():
    workdir = os.path.join(ROOT, ".ttebench-work", f"pins-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    pins = {"sizes": stages.sizes(), "build": {}}
    run = stages.Run(seed=0, seconds=0.0, trace=False, workdir=workdir)
    build = stages.BuildStage(run)
    try:
        stages.register_variants()
        for phase, (_, trips) in stages.BUILD_PHASES.items():
            pins["build"][phase] = {}
            for v in range(stages.BUILD_VARIANTS):
                out, dataset, wall = build.build(phase, v, trips, "pin", None)
                dataset.close()
                pins["build"][phase][str(v)] = {
                    "fingerprint": storage.read_meta(out)["fingerprint"],
                    "path_digest": stages.path_digest(out)}
                shutil.rmtree(out)
                print(f"{phase} v{v}: {wall:.3f} s", flush=True)
        train = stages.TrainStage(run)
        train.dataset, _ = train.build_dataset(None)
        out = os.path.join(workdir, "artifact")
        wall, mae, _ = train.job(out, None)
        shutil.rmtree(out)
        pins["train"] = {"val_mae": mae}
        print(f"train: {wall:.3f} s, val MAE {mae!r}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(stages.PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
