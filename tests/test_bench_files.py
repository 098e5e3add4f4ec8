"""The committed benchmark record: `BENCH_trajectory.json` ends with each workload's latest claim.

Each `BENCH_<workload>.json` holds the alternating parent/change runs of the latest change that
claimed a gain on that workload; the trajectory keeps one entry per claiming change, workload and
seed.  Nothing here runs the benchmark.
"""

import json
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_the_trajectory_ends_with_each_workloads_bench_file():
    entries = json.loads((ROOT / "BENCH_trajectory.json").read_text())["entries"]
    benches = [json.loads(path.read_text()) for path in sorted(ROOT.glob("BENCH_*.json"))
               if path.name != "BENCH_trajectory.json"]
    assert sorted(bench["workload"] for bench in benches) == sorted({entry["workload"] for entry in entries})
    for bench in benches:
        ours = [entry for entry in entries if entry["workload"] == bench["workload"]]
        last = {entry["seed"]: entry for entry in ours if (entry["commit"], entry["parent"]) ==
                (ours[-1]["commit"], ours[-1]["parent"])}
        assert ours[-1]["parent"] == bench["parent"] and sorted(last) == sorted(bench["seeds"]), bench["workload"]
        for seed, run in bench["seeds"].items():
            entry = last[seed]
            assert (entry["pairs"], entry["env"]) == (run["pairs"], bench["env"])
            assert sorted(entry["metrics"]) == sorted(run["metrics"])
            for name, metric in run["metrics"].items():
                medians = metric["parent"]["median"], metric["change"]["median"]
                assert entry["metrics"][name] == {"parent": medians[0], "change": medians[1],
                                                  "ratio": round(medians[1] / medians[0], 5),
                                                  "change_wins": metric["change_wins"]}, (bench["workload"], seed, name)
