"""Worker count must never change run artifacts (byte-for-byte).

The parallel executor's acceptance bar: ``--jobs 8`` and ``--jobs 1``
produce identical rendered reports and identical CSV rows for the same
specs, because every experiment's RNG is derived from ``seed_for(spec)``
and never from process-global state.  Exercised here on fig6 (density
feedback) and sec53 (university projection), the two experiments the
roadmap calls out as the paper's quantitative anchors, and on fig4, whose
series are read off the recorder's rejection and arrival columns.
"""

import hashlib

from repro.cli import main
from repro.experiments.registry import csv_table
from repro.sim.parallel import RunSpec, run_specs

SPECS = [
    RunSpec("fig6", seed=7, horizon_days=40.0),
    RunSpec("sec53", seed=11, horizon_days=30.0),
    RunSpec("fig4", seed=7, horizon_days=120.0),
]


def _artifact_sha(outcome):
    headers, rows = csv_table(outcome.spec.experiment, outcome.result)
    digest = hashlib.sha256()
    digest.update(outcome.rendered.encode())
    digest.update("|".join(headers).encode())
    for row in rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()


class TestJobsParity:
    def test_jobs1_and_jobs4_produce_identical_artifacts(self):
        serial = run_specs(SPECS, jobs=1)
        pooled = run_specs(SPECS, jobs=4)
        assert [o.ok for o in serial] == [o.ok for o in pooled] == [True] * len(SPECS)
        assert sum(serial[-1].result.totals.values()) > 0  # fig4 saw rejections
        for mine, theirs in zip(serial, pooled):
            assert _artifact_sha(mine) == _artifact_sha(theirs)

    def test_replicas_differ_but_are_reproducible(self):
        # Same spec → same artifact; bumped replica → different RNG stream.
        spec = RunSpec("fig6", seed=7, horizon_days=20.0)
        again = run_specs([spec], jobs=1)[0]
        base = run_specs([spec], jobs=1)[0]
        bumped = run_specs([spec.with_overrides(replica=1)], jobs=1)[0]
        assert _artifact_sha(base) == _artifact_sha(again)
        assert _artifact_sha(base) != _artifact_sha(bumped)


class TestCliCsvParity:
    def test_csv_bytes_identical_across_jobs(self, tmp_path, capsys):
        shas = {}
        for jobs in (1, 4):
            csv_path = tmp_path / f"jobs{jobs}.csv"
            code = main(
                [
                    "run", "fig6",
                    "--horizon-days", "40",
                    "--seed", "7",
                    "--jobs", str(jobs),
                    "--csv", str(csv_path),
                ]
            )
            capsys.readouterr()
            assert code == 0
            shas[jobs] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert shas[1] == shas[4]
