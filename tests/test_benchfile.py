"""``benchmarks.benchfile``: every committed ``BENCH_*.json`` record
passes its spec, and a mutated record fails closed.

The lint and datagen records' cases live beside their subsystems
(``tests/analysis/test_bench_schema.py``,
``tests/datagen/test_pipeline_api.py``); the fit, embedding and serving
cases start from the committed records here.
"""

import copy
import json
from pathlib import Path

import pytest

from benchmarks.benchfile import SPECS, check, main

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _record(name):
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())


def test_every_bench_has_a_committed_record():
    assert sorted(check(json.loads(p.read_text()))["bench"]
                  for p in RECORDS) == sorted(SPECS)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_committed_record_passes(path):
    assert main([str(path)]) == 0


@pytest.mark.parametrize("name,mutate,match", [
    ("fit", lambda p: p["workload"].pop("steps"), "workload.steps missing"),
    ("fit", lambda p: p["workload"].update(sequence_encoder="rnn"),
     "workload.sequence_encoder must be one of"),
    ("fit", lambda p: p["fast"].update(forward_s=p["fast"]["fit_s"] * 2),
     "fast.forward_s .* is above 1.5 x fast.fit_s"),
    ("fit", lambda p: p.update(speedup=p["floor"] - 0.1),
     "speedup .* is below floor"),
    ("fit", lambda p: p["parity"].update(fast_mae="n/a"),
     "parity.fast_mae must be"),
    ("embedding", lambda p: p.update(speedup=p["floor"] * 0.9),
     "speedup .* is below floor"),
    ("embedding", lambda p: p.update(pairs=1), "pairs = 1 is below 5"),
    ("serving", lambda p: p["overlap"].pop("speedup"),
     "overlap.*missing"),
    ("serving", lambda p: p.update(schema="repro.bench.serving/v0"),
     "schema must be"),
    ("serving", lambda p: p["open_loop"].update(latency_ms=3.0),
     "open_loop.latency_ms must be an object"),
    ("serving", lambda p: p["open_loop"]["latency_ms"].pop("p99"),
     "open_loop.latency_ms.p99 missing"),
    ("serving", lambda p: p["model"].update(cluster_qps=-1.0),
     "model.cluster_qps must be a non-negative number"),
    ("serving", lambda p: p["overlap"].update(speedup=1.5),
     "overlap.speedup = 1.5 is below overlap.floor"),
    ("datagen", lambda p: p["workload"].update(city="atlantis"),
     "workload.city must be one of"),
    ("datagen", lambda p: p["parallel"].update(mode="fast"),
     "parallel.mode must be one of"),
    ("datagen", lambda p: p["viterbi"].update(paths_identical=1),
     "viterbi.paths_identical must be True"),
    ("lint", lambda p: p.update(files=True),
     "files must be a non-negative integer"),
])
def test_mutated_record_fails(name, mutate, match):
    payload = copy.deepcopy(_record(name))
    check(payload)
    mutate(payload)
    with pytest.raises(ValueError, match=match):
        check(payload)


@pytest.mark.parametrize("payload", [[], "BENCH", {"bench": ["fit"]}])
def test_rejects_a_record_that_names_no_bench(payload):
    with pytest.raises(ValueError):
        check(payload)


def test_cli_fails_on_any_bad_file(tmp_path, capsys):
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{not json")
    good = str(ROOT / "BENCH_fit.json")
    assert main([good, str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().err
    assert main([str(tmp_path / "missing.json")]) == 1
    assert main([]) == 2
