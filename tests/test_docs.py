"""Docs that quote measured numbers must equal the committed baselines."""

import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def scaling_table() -> dict[int, tuple[int, float]]:
    """``{shards: (fleet ops/s, speedup)}`` from docs/performance.md."""
    text = (REPO / "docs" / "performance.md").read_text(encoding="utf-8")
    serving = text.split("# Sharded serving under a flash crowd", 1)[1]
    section = serving.split("## Scaling table", 1)[1].split("\n#", 1)[0]
    rows = re.findall(
        r"^\| (\d+) \| ([\d,]+) \| ([\d.]+)x \|$", section, flags=re.MULTILINE
    )
    return {
        int(shards): (int(ops.replace(",", "")), float(speedup))
        for shards, ops, speedup in rows
    }


def test_serve_scaling_table_equals_the_committed_baseline():
    baseline = json.loads(
        (REPO / "benchmarks" / "baselines" / "BENCH_test_serve_scaling.json").read_text(
            encoding="utf-8"
        )
    )
    values = baseline["benchmarks/test_serve_scaling.py::test_flash_crowd_scaling"][
        "values"
    ]
    table = scaling_table()
    arms = {
        int(match.group(1)): value
        for name, value in values.items()
        if (match := re.fullmatch(r"requests_per_sec_(\d+)shard", name))
    }
    assert sorted(table) == sorted(arms)
    for shards, ops_per_sec in arms.items():
        quoted_ops, quoted_speedup = table[shards]
        assert quoted_ops == round(ops_per_sec)
        assert quoted_speedup == round(ops_per_sec / arms[1], 2)
    assert table[4][1] == round(values["speedup_4shard"], 2)
