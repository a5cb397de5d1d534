"""Tier-1 smoke test of the end-to-end benchmark (``--scale smoke``).

Runs every workload in-process at N/10 -- untraced and traced -- and
checks the plumbing a full run relies on: the emitted names are the
ones ``BENCHMARK.json`` declares, no operation fails, both bitwise
contracts hold, the traced layers sum to their parent, a layer callable
that cannot be resolved turns into ``null`` instead of an exception,
and ``--compare`` flags what it should.  No timing is asserted.
"""

import importlib.util
import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
e2e_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_run)

from e2e_trace import LAYER_CALLABLES  # noqa: E402  (run.py set the path)
from e2e_workloads import WORKLOADS  # noqa: E402

BENCH = e2e_run.load_spec()


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e_out")
    return {
        name: {
            trace: e2e_run.run_one(
                name, seed=0, seconds=0.5, trace=trace, scale="smoke",
                out_dir=out,
            )
            for trace in (0, 1)
        }
        for name in WORKLOADS
    }


def test_names_match_benchmark_json(records):
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for by_trace in records.values():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line = e2e_run.final_line(by_trace[trace])
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == [m["name"] for m in BENCH[key]]
            for metric, declared in zip(line["metrics"].values(), BENCH[key]):
                assert metric["unit"] == declared["unit"]
                assert isinstance(metric["value"], (int, float))
            json.dumps(line)


def test_no_failed_operations_and_contracts_hold(records):
    for name, by_trace in records.items():
        untraced = by_trace[0]
        assert untraced["attempted"] >= 1
        assert untraced["failed"] == 0, untraced["failures"]
        assert untraced["checks"]["update_equals_cold_prepare"]
        assert untraced["checks"]["error_under_ceiling"]
        assert untraced["correct"]
    assert records["sphere_rhs16"][0]["checks"]["column_equals_solo"]


def test_traced_layers_sum_to_their_parent(records):
    for by_trace in records.values():
        traced = by_trace[1]
        assert traced["missing_layers"] == []
        assert traced["checks"] == {
            "layers_sum_prepare": True, "layers_sum_apply": True,
        }
        assert traced["correct"]


def test_unresolvable_layer_is_null_not_an_exception():
    broken = dict(LAYER_CALLABLES)
    broken["plan.compile_plan"] = "repro.core.plan:renamed_by_a_refactor"
    with pytest.warns(RuntimeWarning, match="cannot be resolved"):
        record = e2e_run.run_one(
            "cube_fine", trace=1, scale="smoke", callables=broken
        )
    assert record["missing_layers"] == ["plan.compile_plan"]
    assert record["per_layer"]["plan.compile_s"]["value"] is None
    assert record["per_layer"]["tree.build_s"]["value"] > 0
    json.dumps(e2e_run.final_line(record))


def _results(tmp_path, name, apply_samples, failed=0):
    metric = {
        "value": sorted(apply_samples)[len(apply_samples) // 2],
        "samples": apply_samples,
    }
    end_to_end = {m["name"]: {"value": 1.0} for m in BENCH["end_to_end"]}
    end_to_end["apply_warm_s"] = metric
    path = tmp_path / name
    path.write_text(json.dumps({
        "env": e2e_run.environment(),
        "workloads": {"cube_default": {"untraced": {
            "end_to_end": end_to_end, "attempted": 10, "failed": failed,
        }}},
    }))
    return str(path)


def test_compare_flags_worse_unresolved_and_failures(tmp_path, capsys):
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    base = _results(tmp_path, "a.json", steady)
    assert e2e_run.compare(base, base) == 0
    slower = _results(tmp_path, "b.json", [2 * s for s in steady])
    assert e2e_run.compare(base, slower) == 1
    assert "worse" in capsys.readouterr().out
    noisy = _results(tmp_path, "c.json", [0.5, 1.0, 1.6, 2.2, 3.0])
    assert e2e_run.compare(base, noisy) == 0
    assert "unresolved" in capsys.readouterr().out
    failing = _results(tmp_path, "d.json", steady, failed=1)
    assert e2e_run.compare(base, failing) == 1
