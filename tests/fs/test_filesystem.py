"""Tests for the TemporalFS prototype."""

import pytest

from repro.core.importance import ConstantImportance, TwoStepImportance
from repro.errors import StorageFullError
from repro.fs import FileFadedError, TemporalFS
from repro.fs.path import PathError
from repro.units import days, mib


def two_step(p=1.0, persist=15.0, wane=15.0):
    return TwoStepImportance(p=p, t_persist=days(persist), t_wane=days(wane))


@pytest.fixture
def fs():
    return TemporalFS(mib(16))


class TestWriteRead:
    def test_round_trip(self, fs):
        fs.write("/docs/report.txt", b"hello storage", 0.0, lifetime=two_step())
        assert fs.read("/docs/report.txt", 1.0) == b"hello storage"
        assert fs.exists("/docs/report.txt")
        assert "/docs/report.txt" in fs and "/docs/other.txt" not in fs
        assert len(fs) == 1

    def test_stat_reports_annotation_state(self, fs):
        fs.write("/v.mp4", b"x" * mib(1), 0.0, lifetime=two_step())
        stat = fs.stat("/v.mp4", days(22.5))
        assert stat.size == mib(1)
        assert stat.importance == pytest.approx(0.5)
        assert stat.expires_at == days(30)
        assert stat.created_at == 0.0

    def test_default_annotations_apply_by_path(self, fs):
        fs.write("/tmp/scratch", b"data", 0.0)
        fs.write("/home/me/thesis.tex", b"data", 0.0)
        tmp = fs.stat("/tmp/scratch", 0.0)
        home = fs.stat("/home/me/thesis.tex", 0.0)
        assert tmp.importance < home.importance

    def test_explicit_annotation_beats_default(self, fs):
        fs.write("/tmp/precious", b"data", 0.0, lifetime=two_step(p=1.0))
        assert fs.stat("/tmp/precious", 0.0).importance == 1.0

    def test_overwrite_replaces_content_and_annotation(self, fs):
        fs.write("/f", b"old", 0.0, lifetime=two_step(p=0.5))
        fs.write("/f", b"new", days(1), lifetime=two_step(p=1.0))
        assert fs.read("/f", days(1)) == b"new"
        assert fs.stat("/f", days(1)).importance == 1.0
        assert len(fs) == 1

    def test_missing_file_raises_plain_not_found(self, fs):
        with pytest.raises(FileNotFoundError):
            fs.read("/nope", 0.0)
        with pytest.raises(FileNotFoundError):
            fs.stat("/nope", 0.0)

    @pytest.mark.parametrize("bad", ["relative", "/", "/a/"])
    def test_bad_paths_rejected(self, fs, bad):
        with pytest.raises(PathError):
            fs.write(bad, b"x", 0.0)

    def test_non_bytes_and_empty_data_rejected(self, fs):
        with pytest.raises(PathError):
            fs.write("/f", "text", 0.0)
        with pytest.raises(PathError):
            fs.write("/f", b"", 0.0)


class TestFading:
    def fill(self, fs, n, *, p=1.0, prefix="/bulk", t=0.0):
        for i in range(n):
            fs.write(f"{prefix}/{i:02d}", b"x" * mib(1), t, lifetime=two_step(p=p))

    def test_pressure_fades_least_important_files(self, fs):
        self.fill(fs, 16, p=0.5)
        fs.write("/vip", b"x" * mib(1), 1.0, lifetime=two_step(p=1.0))
        faded = fs.faded()
        assert len(faded) == 1 and faded[0].startswith("/bulk/")
        with pytest.raises(FileFadedError):
            fs.read(faded[0], 2.0)
        assert fs.faded_count == 1

    def test_full_volume_refuses_equal_importance_write(self, fs):
        self.fill(fs, 16, p=1.0)
        with pytest.raises(StorageFullError) as excinfo:
            fs.write("/late", b"x" * mib(1), 1.0, lifetime=two_step(p=1.0))
        assert excinfo.value.blocking_importance == 1.0
        # Nothing was lost to the refused write.
        assert len(fs) == 16 and not fs.faded()

    def test_refused_overwrite_keeps_old_version(self, fs):
        # Fill with persistent files so nothing can be evicted, then try
        # to replace one with a bigger version that cannot fit.
        for i in range(15):
            fs.write(f"/solid/{i:02d}", b"x" * mib(1), 0.0,
                     lifetime=ConstantImportance())
        fs.write("/target", b"x" * mib(1), 0.0, lifetime=ConstantImportance())
        with pytest.raises(StorageFullError):
            fs.write("/target", b"y" * mib(2), 1.0, lifetime=ConstantImportance())
        assert fs.read("/target", 2.0) == b"x" * mib(1)

    def test_fade_then_rewrite_clears_fade_state(self, fs):
        self.fill(fs, 16, p=0.5)
        fs.write("/vip", b"v" * mib(1), 1.0, lifetime=two_step(p=1.0))
        faded_path = fs.faded()[0]
        fs.write(faded_path, b"back" + b"x" * mib(1), days(40))
        assert fs.read(faded_path, days(40)).startswith(b"back")
        assert faded_path not in fs.faded()


class TestManagement:
    def test_remove_is_traditional_delete(self, fs):
        fs.write("/f", b"x", 0.0)
        fs.remove("/f", 1.0)
        assert not fs.exists("/f")
        with pytest.raises(FileNotFoundError):
            fs.read("/f", 2.0)
        assert fs.faded() == []  # explicit removal is not fading

    def test_listdir_filters_by_directory(self, fs):
        fs.write("/a/one", b"x", 0.0)
        fs.write("/a/two", b"x", 0.0)
        fs.write("/b/three", b"x", 0.0)
        assert fs.listdir("/a") == ["/a/one", "/a/two"]
        assert len(fs.listdir("/")) == 3

    def test_set_lifetime_rejuvenates(self, fs):
        fs.write("/f", b"x" * mib(1), 0.0, lifetime=two_step())
        stat = fs.set_lifetime("/f", two_step(), days(25))
        assert stat.importance == 1.0  # clock restarted
        assert fs.read("/f", days(25)) == b"x" * mib(1)

    def test_density_and_advise(self, fs):
        fs.write("/f", b"x" * mib(8), 0.0, lifetime=two_step(p=1.0))
        assert fs.density(0.0) == pytest.approx(0.5)
        advice = fs.advise(mib(1), persist_days=5, wane_days=5, now=0.0)
        assert advice.achievable
