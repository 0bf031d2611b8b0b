"""The command line end to end: --quick, the driver protocol, the bare
directory, and compare's exit codes."""

import json
import os
import shutil
import subprocess
import sys

from benchmarks.ledger.__main__ import ROOT
from benchmarks.ledger.metrics import DRIVER_END_TO_END, END_TO_END, PER_LAYER


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=timeout)


def test_quick_runs_every_workload_and_names_every_metric(tmp_path):
    out = tmp_path / "quick.json"
    done = _run("-m", "benchmarks.ledger", "--quick", "--out", str(out))
    assert done.returncode == 0, done.stderr
    for metric in END_TO_END:
        assert metric.name in done.stdout
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == [
        "tpch_adhoc", "compile_bound", "tpch_served", "serving_point",
        "serving_mixed"]
    assert all(r["failed_timed"] == 0 for r in runs)
    # the known first-execution failure of Q14 through the service is
    # data, not a harness error
    served = runs[2]
    assert served["failures"] == {"PlanError": 1}
    assert served["metrics"]["failed_share"]["value"] > 0.0
    mixed = runs[4]["metrics"]
    assert {"hit_p50_ms", "miss_p50_ms", "write_p50_ms"} <= set(mixed)


def test_driver_protocol_last_line(tmp_path):
    spans = tmp_path / "spans.jsonl"
    for trace, wanted in ((0, DRIVER_END_TO_END), (1, PER_LAYER)):
        done = _run("benchmarks/ledger/run.py", "--workload", "serving_point",
                    "--seed", "5", "--seconds", "1", "--trace", str(trace),
                    "--trace-out", str(spans))
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert list(last["metrics"]) == [m.name for m in wanted]
        for m in wanted:
            assert last["metrics"][m.name]["unit"] == m.unit
    assert spans.read_text().count("\n") > 100


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmarks", "ledger"),
                    tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env_free = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "tpch_adhoc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert env_free.returncode != 0
    assert "{" not in env_free.stdout


def _records(path, **values):
    runs = [{"workload": "w", "metrics": {
        name: {"value": v} for name, v in zip(values, vs)}}
        for vs in zip(*values.values())]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_verdicts_and_exit_codes(tmp_path):
    a = _records(tmp_path / "a.json", stmt_p50_ms=[10.0, 10.1, 9.9],
                 throughput_qps=[100.0, 101.0, 99.0],
                 failed_share=[0.0, 0.0, 0.0])
    same = _run("-m", "benchmarks.ledger", "compare", a, a)
    assert same.returncode == 0 and "regressed" not in same.stdout.split(
        "rows,")[0]
    slow = _records(tmp_path / "b.json", stmt_p50_ms=[13.0, 13.1, 12.9],
                    throughput_qps=[100.0, 101.0, 99.0],
                    failed_share=[0.0, 0.0, 0.0])
    done = _run("-m", "benchmarks.ledger", "compare", a, slow)
    assert done.returncode == 1
    row = next(l for l in done.stdout.splitlines() if "stmt_p50_ms" in l)
    assert "regressed" in row and "1.300" in row
    fails = _records(tmp_path / "c.json", stmt_p50_ms=[10.0, 10.1, 9.9],
                     throughput_qps=[130.0, 131.0, 129.0],
                     failed_share=[0.0, 0.01, 0.01])
    done = _run("-m", "benchmarks.ledger", "compare", a, fails)
    assert done.returncode == 1
    assert "improved" in next(l for l in done.stdout.splitlines()
                              if "throughput_qps" in l)
    assert "regressed" in next(l for l in done.stdout.splitlines()
                               if "failed_share" in l)
    noisy = _records(tmp_path / "d.json", stmt_p50_ms=[8.0, 12.0, 16.0],
                     throughput_qps=[100.0, 101.0, 99.0],
                     failed_share=[0.0, 0.0, 0.0])
    done = _run("-m", "benchmarks.ledger", "compare", a, noisy)
    assert "unresolved" in next(l for l in done.stdout.splitlines()
                                if "stmt_p50_ms" in l)
