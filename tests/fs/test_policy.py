"""Tests for default annotation rules."""

import pytest

from repro.core.importance import TwoStepImportance
from repro.errors import ReproError
from repro.fs.policy import DefaultAnnotationPolicy, PatternRule
from repro.units import days


class TestPaperDefaults:
    def test_tmp_files_are_less_important(self):
        policy = DefaultAnnotationPolicy()
        tmp = policy.lifetime_for("/tmp/scratch.dat")
        regular = policy.lifetime_for("/home/me/thesis.tex")
        assert tmp.initial_importance < regular.initial_importance
        assert tmp.t_expire < regular.t_expire

    def test_jpegs_match_by_extension_anywhere(self):
        policy = DefaultAnnotationPolicy()
        img = policy.lifetime_for("/home/me/photos/cat.jpeg")
        assert img.initial_importance == 0.5
        assert policy.lifetime_for("/x/y.jpg") == img

    def test_catch_all_matches_everything(self):
        policy = DefaultAnnotationPolicy()
        assert policy.lifetime_for("/anything/else.bin") is not None

    def test_default_is_not_persistent(self):
        # The point of the filesystem: nothing defaults to forever.
        policy = DefaultAnnotationPolicy()
        lifetime = policy.lifetime_for("/home/me/file")
        assert lifetime.t_expire < float("inf")


class TestCustomRules:
    def test_first_match_wins(self):
        special = PatternRule(
            "/tmp/keep-*",
            TwoStepImportance(p=1.0, t_persist=days(90), t_wane=days(90)),
            "pinned scratch",
        )
        boosted = DefaultAnnotationPolicy(rules=(special, *DefaultAnnotationPolicy().rules))
        assert boosted.lifetime_for("/tmp/keep-me").initial_importance == 1.0
        assert boosted.lifetime_for("/tmp/other").initial_importance == 0.6

    def test_no_match_raises(self):
        policy = DefaultAnnotationPolicy(rules=(
            PatternRule("/only/*", TwoStepImportance(p=1.0, t_persist=1.0, t_wane=1.0)),
        ))
        with pytest.raises(ReproError, match="no annotation rule"):
            policy.lifetime_for("/elsewhere/file")

    def test_rule_validation(self):
        with pytest.raises(ReproError):
            PatternRule("", TwoStepImportance(p=1.0, t_persist=1.0, t_wane=1.0))
        with pytest.raises(ReproError):
            PatternRule("/x", "not-a-function")
        with pytest.raises(ReproError):
            DefaultAnnotationPolicy(rules=())
