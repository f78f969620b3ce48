"""Default annotations by path pattern (paper §1, §6).

The paper discusses (and rejects as *sole* mechanism) static designation:
"objects stored in /tmp as well as JPEG objects can be designated as less
important.  Such policies are inherently inflexible..."  The filesystem
therefore treats pattern rules as *defaults* — applied when a writer did
not pass an explicit annotation — while explicit annotations always win,
which is the paper's recommended division of labour.

Rules are ordered; the first match supplies the annotation.  Patterns use
:mod:`fnmatch` globs over the full normalised path.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field

from repro.core.importance import (
    ConstantImportance,
    ImportanceFunction,
    TwoStepImportance,
)
from repro.errors import ReproError
from repro.units import days, hours

__all__ = ["PatternRule", "DefaultAnnotationPolicy"]


@dataclass(frozen=True)
class PatternRule:
    """One glob → annotation default."""

    pattern: str
    lifetime: ImportanceFunction
    description: str = ""

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ReproError("rule pattern must be non-empty")
        if not isinstance(self.lifetime, ImportanceFunction):
            raise ReproError(f"rule lifetime must be an ImportanceFunction")

    def matches(self, path: str) -> bool:
        return fnmatch.fnmatchcase(path, self.pattern)


def paper_default_rules() -> tuple[PatternRule, ...]:
    """The defaults the paper's motivation sketches.

    * ``/tmp/**`` — scratch space: a day of full importance, a day of wane;
    * ``*.jpeg`` / ``*.jpg`` — cached images: low importance, week-scale;
    * ``/cache/**`` — explicit caches: near-ephemeral;
    * everything else — conservative two-step (a month full, a month wane),
      *not* infinite: the filesystem's whole point is that persistence is
      requested explicitly, not defaulted into.
    """
    return (
        PatternRule(
            "/tmp/*",
            TwoStepImportance(p=0.6, t_persist=days(1), t_wane=days(1)),
            "scratch files",
        ),
        PatternRule(
            "/cache/*",
            TwoStepImportance(p=0.2, t_persist=hours(6), t_wane=hours(18)),
            "cache entries",
        ),
        PatternRule(
            "*.jpeg",
            TwoStepImportance(p=0.5, t_persist=days(7), t_wane=days(7)),
            "downloaded images",
        ),
        PatternRule(
            "*.jpg",
            TwoStepImportance(p=0.5, t_persist=days(7), t_wane=days(7)),
            "downloaded images",
        ),
        PatternRule(
            "*",
            TwoStepImportance(p=1.0, t_persist=days(30), t_wane=days(30)),
            "default files",
        ),
    )


@dataclass
class DefaultAnnotationPolicy:
    """Ordered pattern rules supplying default annotations."""

    rules: tuple[PatternRule, ...] = field(default_factory=paper_default_rules)

    def __post_init__(self) -> None:
        if not self.rules:
            raise ReproError("annotation policy needs at least one rule")

    def lifetime_for(self, path: str) -> ImportanceFunction:
        """Default annotation for ``path`` (first matching rule).

        Raises :class:`ReproError` when no rule matches — configure a
        catch-all ``*`` rule (the built-in defaults do) to avoid this.
        """
        for rule in self.rules:
            if rule.matches(path):
                return rule.lifetime
        raise ReproError(f"no annotation rule matches {path!r}")

    def with_rule_first(self, rule: PatternRule) -> "DefaultAnnotationPolicy":
        """A copy of this policy with ``rule`` taking precedence."""
        return DefaultAnnotationPolicy(rules=(rule, *self.rules))

    def explain(self, path: str) -> str:
        """Which rule governs a path (for tooling/debugging)."""
        for rule in self.rules:
            if rule.matches(path):
                label = rule.description or rule.pattern
                return f"{path} -> {label} (pattern {rule.pattern!r})"
        return f"{path} -> no matching rule"


#: Guard against accidentally defaulting files to forever: the policy
#: itself permits ConstantImportance rules, but the filesystem warns via
#: this marker in its docstrings/tests.
PERSISTENT = ConstantImportance(p=1.0)
