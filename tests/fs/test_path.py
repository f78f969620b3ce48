"""Tests for filesystem path handling."""

import pytest

from repro.fs.path import PathError, is_within, normalize_path


class TestNormalizePath:
    def test_canonicalises_duplicates_and_dots(self):
        assert normalize_path("/a//b/./c") == "/a/b/c"

    def test_plain_paths_unchanged(self):
        assert normalize_path("/home/user/video.mp4") == "/home/user/video.mp4"

    @pytest.mark.parametrize("bad", [
        "", "relative/path", "/", "/a/../b", "/a/", "/nul\x00byte", 42,
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(PathError):
            normalize_path(bad)


class TestHelpers:
    def test_is_within(self):
        assert is_within("/a/b/c", "/a")
        assert is_within("/a/b/c", "/")
        assert not is_within("/a/b/c", "/a/bc")
        assert not is_within("/ax", "/a")
