"""Run-directory discovery: one rule for alerts/flamegraph/explain."""

import pytest

from repro.errors import ReproError
from repro.report.rundir import default_out, is_merged, run_files


def _touch(directory, *names):
    for name in names:
        (directory / name).write_text("{}")


def _names(found):
    return [path.rsplit("/", 1)[-1] for path in found]


class TestIsMerged:
    @pytest.mark.parametrize(
        "name", ["m-merged.json", "audit-merged.jsonl", "dir/t-merged.jsonl", "x-merged"]
    )
    def test_merged_names(self, name):
        assert is_merged(name)

    @pytest.mark.parametrize(
        "name", ["m-fig6.json", "merged.json", "m-merged-fig6.json", "m-merged.d/x.json"]
    )
    def test_other_names(self, name):
        assert not is_merged(name)


class TestRunFiles:
    def test_explicit_file_is_offered_to_the_sniff(self, tmp_path):
        _touch(tmp_path, "one.json")
        target = str(tmp_path / "one.json")
        assert run_files(target, ".json", lambda p: True, what="things") == {target: True}
        with pytest.raises(ReproError, match="no things found under"):
            run_files(target, ".json", lambda p: False, what="things")

    def test_directory_filters_by_extension_and_sniff_sorted(self, tmp_path):
        _touch(tmp_path, "b.json", "a.json", "c.jsonl", "skip.json")
        found = run_files(
            str(tmp_path), ".json", lambda p: "skip" not in p and p[-6], what="things"
        )
        assert _names(found) == ["a.json", "b.json"]
        # The sniff's value is kept: a sniff that loads the file loads it once.
        assert list(found.values()) == ["a", "b"]

    def test_merged_policies(self, tmp_path):
        _touch(tmp_path, "m-a.json", "m-b.json", "m-merged.json")
        directory = str(tmp_path)

        def policy(merged):
            return _names(run_files(directory, ".json", bool, what="things", merged=merged))

        assert policy("only") == ["m-merged.json"]
        assert policy("skip") == ["m-a.json", "m-b.json"]

    def test_policies_fall_back_to_what_is_there(self, tmp_path):
        _touch(tmp_path, "m-merged.json")
        only_fold = run_files(str(tmp_path), ".json", bool, what="things", merged="skip")
        assert _names(only_fold) == ["m-merged.json"]
        (tmp_path / "m-merged.json").unlink()
        _touch(tmp_path, "m-a.json")
        no_fold = run_files(str(tmp_path), ".json", bool, what="things", merged="only")
        assert _names(no_fold) == ["m-a.json"]

    def test_missing_path_and_empty_directory_raise(self, tmp_path):
        with pytest.raises(ReproError, match="is not a file or directory"):
            run_files(str(tmp_path / "nope"), ".json", bool, what="things")
        with pytest.raises(ReproError, match="no things found under"):
            run_files(str(tmp_path), ".json", bool, what="things")


class TestDefaultOut:
    def test_next_to_a_file_or_inside_a_directory(self, tmp_path):
        _touch(tmp_path, "trace.jsonl")
        trace = str(tmp_path / "trace.jsonl")
        # The extension comes from ``name``: text output never lands in a .html file.
        assert default_out(trace, "flamegraph.folded") == str(tmp_path / "trace.folded")
        assert default_out(str(tmp_path), "flamegraph.folded") == str(
            tmp_path / "flamegraph.folded"
        )
