"""BENCHMARK.json against the driver's schema and the ledger's own
metric and workload tables."""

import json
import os
import re

from benchmarks.ledger.__main__ import ROOT, RUN_SECONDS
from benchmarks.ledger.metrics import (
    DRIVER_END_TO_END,
    END_TO_END,
    PER_LAYER,
    WIDENED,
    bound_for,
    driver_bound,
)
from benchmarks.ledger.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    DOC = json.load(handle)


def test_keys_and_limits():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert DOC["paths"] == ["benchmarks/ledger"]
    assert DOC["run_seconds"] == RUN_SECONDS and 1 <= RUN_SECONDS <= 60
    assert 2 <= len(DOC["workloads"]) <= 8
    assert 1 <= len(DOC["end_to_end"]) <= 16
    assert 1 <= len(DOC["per_layer"]) <= 128
    assert os.path.isfile(os.path.join(ROOT, DOC["command"][1]))
    assert DOC["command"][1].startswith(DOC["paths"][0] + "/")


def test_every_name_is_well_formed_and_used_once():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in DOC[key]]
    for name in names:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)
    for key in ("end_to_end", "per_layer"):
        for entry in DOC[key]:
            assert UNIT.match(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher")


def test_workloads_match_the_package():
    assert [w["name"] for w in DOC["workloads"]] == list(WORKLOADS)
    for entry in DOC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metrics_match_the_package():
    assert [(e["name"], e["unit"], e["better"], e["bound"])
            for e in DOC["end_to_end"]] == \
        [(m.name, m.unit, m.better, driver_bound(m))
         for m in DRIVER_END_TO_END]
    assert [(e["name"], e["unit"], e["better"]) for e in DOC["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in PER_LAYER]
    for entry in DOC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in DOC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in DOC["end_to_end"])
    assert len(END_TO_END) == 10


def test_bounds_are_only_ever_widened():
    by_name = {m.name: m for m in END_TO_END}
    for (name, workload), bound in WIDENED.items():
        assert workload in WORKLOADS
        assert bound_for(by_name[name], workload) == bound > by_name[name].bound
    assert bound_for(by_name["stmt_p50_ms"], "no_such_workload") == 0.10
