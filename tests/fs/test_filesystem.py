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


@pytest.fixture(params=[TemporalFS], ids=["temporal"])
def any_fs(request):
    """A 16 MiB volume behind each front end of the path namespace."""
    return request.param(mib(16))


def stored_objects(fs):
    """Objects the volume holds (superseded versions included)."""
    return len(fs.store)


def fill(fs, *, p, prefix="/bulk"):
    """Write 1 MiB files at importance ``p`` until the volume refuses one."""
    for i in range(40):
        try:
            fs.write(f"{prefix}/{i:02d}", b"x" * mib(1), 0.0, lifetime=two_step(p=p))
        except StorageFullError:
            return
    pytest.fail("volume never filled")


class TestNamespace:
    """The path namespace."""

    def test_round_trip(self, any_fs):
        any_fs.write("/docs/report.txt", b"hello storage", 0.0, lifetime=two_step())
        assert any_fs.read("/docs/report.txt", 1.0) == b"hello storage"
        assert any_fs.exists("/docs/report.txt")
        assert "/docs/report.txt" in any_fs and "/docs/other.txt" not in any_fs
        assert len(any_fs) == 1
        assert list(any_fs.files()) == ["/docs/report.txt"]
        assert any_fs.listdir("/docs") == ["/docs/report.txt"]

    def test_stat_reports_annotation_state(self, any_fs):
        any_fs.write("/v.mp4", b"x" * mib(1), 0.0, lifetime=two_step())
        stat = any_fs.stat("/v.mp4", days(22.5))
        assert stat.path == "/v.mp4"
        assert stat.size == mib(1)
        assert stat.importance == pytest.approx(0.5)
        assert stat.expires_at == days(30)
        assert stat.created_at == 0.0
        assert stat.annotation == two_step()

    def test_default_annotations_apply_by_path(self, any_fs):
        any_fs.write("/tmp/scratch", b"data", 0.0)
        any_fs.write("/home/me/thesis.tex", b"data", 0.0)
        tmp = any_fs.stat("/tmp/scratch", 0.0)
        home = any_fs.stat("/home/me/thesis.tex", 0.0)
        assert tmp.importance < home.importance

    def test_explicit_annotation_beats_default(self, any_fs):
        any_fs.write("/tmp/precious", b"data", 0.0, lifetime=two_step(p=1.0))
        assert any_fs.stat("/tmp/precious", 0.0).importance == 1.0

    def test_overwrite_replaces_content_and_annotation(self, any_fs):
        any_fs.write("/f", b"old", 0.0, lifetime=two_step(p=0.5))
        any_fs.write("/f", b"new", days(1), lifetime=two_step(p=1.0))
        assert any_fs.read("/f", days(1)) == b"new"
        assert any_fs.stat("/f", days(1)).importance == 1.0
        assert len(any_fs) == 1
        assert stored_objects(any_fs) == 1

    def test_missing_file_raises_plain_not_found(self, any_fs):
        for op in (any_fs.read, any_fs.stat):
            with pytest.raises(FileNotFoundError) as excinfo:
                op("/nope", 0.0)
            assert not isinstance(excinfo.value, FileFadedError)
        with pytest.raises(FileNotFoundError):
            any_fs.remove("/nope", 0.0)

    @pytest.mark.parametrize("bad", ["relative", "/", "/a/"])
    def test_bad_paths_rejected(self, any_fs, bad):
        with pytest.raises(PathError):
            any_fs.write(bad, b"x", 0.0)

    def test_non_bytes_and_empty_data_rejected(self, any_fs):
        with pytest.raises(PathError):
            any_fs.write("/f", "text", 0.0)
        with pytest.raises(PathError):
            any_fs.write("/f", b"", 0.0)
        assert len(any_fs) == 0 and stored_objects(any_fs) == 0

    def test_pressure_fades_and_a_faded_read_says_so(self, any_fs):
        fill(any_fs, p=0.4)
        any_fs.write("/vip", b"v" * mib(1), 1.0, lifetime=two_step(p=1.0))
        faded = any_fs.faded()
        assert faded and all(path.startswith("/bulk/") for path in faded)
        for path in faded:
            assert not any_fs.exists(path) and path not in any_fs
            assert path not in any_fs.listdir("/bulk")
            with pytest.raises(FileFadedError, match="reclaimed"):
                any_fs.read(path, 2.0)
            with pytest.raises(FileFadedError):
                any_fs.stat(path, 2.0)
        assert len(any_fs) == len(any_fs.listdir("/")) == stored_objects(any_fs)

    def test_fade_then_rewrite_clears_fade_state(self, any_fs):
        fill(any_fs, p=0.5)
        any_fs.write("/vip", b"v" * mib(1), 1.0, lifetime=two_step(p=1.0))
        faded_path = any_fs.faded()[0]
        any_fs.write(faded_path, b"back" + b"x" * mib(1), days(40))
        assert any_fs.read(faded_path, days(40)).startswith(b"back")
        assert faded_path not in any_fs.faded()

    def test_remove_is_traditional_delete(self, any_fs):
        any_fs.write("/f", b"x", 0.0)
        any_fs.remove("/f", 1.0)
        assert not any_fs.exists("/f")
        with pytest.raises(FileNotFoundError):
            any_fs.read("/f", 2.0)
        assert any_fs.faded() == []  # explicit removal is not fading
        assert stored_objects(any_fs) == 0

    def test_listdir_filters_by_directory(self, any_fs):
        any_fs.write("/a/one", b"x", 0.0)
        any_fs.write("/a/two", b"x", 0.0)
        any_fs.write("/b/three", b"x", 0.0)
        assert any_fs.listdir("/a") == ["/a/one", "/a/two"]
        assert len(any_fs.listdir("/")) == 3


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


class TestManagement:
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
