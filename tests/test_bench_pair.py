import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("bench_pair", Path(__file__).parents[1] / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def result(wall, setup, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": setup, "unit": "s"}}}


def test_summary_gives_each_sides_quartiles_and_the_pairs_the_change_won():
    end_to_end = [{"name": "wall_s", "better": "lower"}, {"name": "setup_s", "better": "lower"},
                  {"name": "peak_rss_mb", "better": "lower"}]
    walls = {"parent": [1.0, 2.0, 3.0, 4.0, 5.0], "change": [1.5, 1.0, 3.5, 3.0, 6.0]}
    runs = [{"workload": "w", "seed": seed, "side": side, "result": result(walls[side][i], 0.4 - 0.2 * (side == "change"))}
            for i, seed in enumerate((1, 2, 3, 4, 5)) for side in bench_pair.SIDES]
    # a run that ended in an error leaves its pair, and a failed operation counts
    runs.append({"workload": "w", "seed": 6, "side": "change", "result": {"error": "exit 1: boom"}})
    runs.append({"workload": "w", "seed": 6, "side": "parent", "result": result(9.0, 0.4, correct=False, failed=2)})
    got = bench_pair.summarize(runs, end_to_end)["w"]
    assert got["runs"] == {"parent": 6, "change": 5}
    assert got["all_correct"] == {"parent": False, "change": True}
    assert got["failed_ops"] == {"parent": 2, "change": 0}
    assert set(got["metrics"]) == {"wall_s", "setup_s"}  # no run reports peak_rss_mb
    wall = got["metrics"]["wall_s"]
    # exclusive quartiles, as in bench/steady.py: parent 1, 2, 3, 4, 5, 9 and change 1, 1.5, 3, 3.5, 6
    assert wall["parent"] == {"median": 3.5, "q1": 1.75, "q3": 6.0, "n": 6}
    assert wall["change"] == {"median": 3.0, "q1": 1.25, "q3": 4.75, "n": 5}
    assert (wall["pairs"], wall["change_wins"]) == (5, 2)
    setup = got["metrics"]["setup_s"]
    assert setup["change"]["median"] == 0.2 and (setup["pairs"], setup["change_wins"]) == (5, 5)
