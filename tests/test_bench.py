import importlib.util
import pathlib

import pytest

END_TO_END = [
    {"name": "cpu_s", "better": "lower", "bound": 0.25},
    {"name": "checks_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def load_tool():
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(correct, failed, **values):
    return {"correct": correct, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}}


def fixed_pairs():
    """Five pairs: the change takes 20 % more CPU and does 30 % fewer checks,
    and the parent's set-up times spread from 1 to 3 around a median of 2."""
    base_cpu, base_setup = [1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 1.5, 2.0, 2.5, 3.0]
    pairs = []
    for k in range(5):
        base = result(True, 0, cpu_s=base_cpu[k], checks_per_s=100.0, setup_s=base_setup[k])
        change = result(k != 4, 2 * (k == 4), cpu_s=1.2, checks_per_s=70.0 + 40 * (k == 0),
                        setup_s=2.0)
        pairs.append((base, change))
    return pairs


def test_summarize_reports_quartiles_differences_wins_and_bound_checks():
    tool = load_tool()
    rows = {row[0]: row[1:] for row in tool.summarize(fixed_pairs(), END_TO_END)}
    bq, cq, diff, wins, check = rows["cpu_s"]
    assert (bq, cq, wins, check) == ((1.0, 1.0, 1.0), (1.2, 1.2, 1.2), 0, "ok; parent IQR 0%")
    assert diff == pytest.approx(0.2)
    bq, cq, diff, wins, check = rows["checks_per_s"]
    assert (bq, cq, wins) == ((100.0, 100.0, 100.0), (70.0, 70.0, 70.0), 1)
    assert diff == pytest.approx(-0.3)
    assert check == "worse than the bound of 25%"
    bq, _cq, diff, wins, check = rows["setup_s"]
    assert (bq, diff, wins) == ((1.5, 2.0, 2.5), 0.0, 2)
    assert check == "unresolved: parent IQR 50% is above the bound"


def test_outcomes_and_table_name_each_side():
    tool = load_tool()
    pairs = fixed_pairs()
    assert tool.outcomes(pairs) == "parent 5/5 correct, 0 failed; change 4/5 correct, 2 failed"
    lines = tool.table("trace-wide", pairs, END_TO_END).splitlines()
    assert lines[2] == ("| trace-wide | cpu_s | 1 [1-1] | 1.2 [1.2-1.2] | +20.0% | 0/5 |"
                        " ok; parent IQR 0% |")
    assert lines[-1].startswith("trace-wide: parent 5/5 correct")

