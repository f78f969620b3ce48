"""Extension bench: the annotation feedback loop, closed.

Sections 1 and 5.1.2 argue that without feedback users will
"conservatively create objects that are annotated with an importance of
100% always, defeating the intention of the temporal importance
function".  This bench quantifies the alternative: a producer that
consults the advisor (density + admission threshold) before each write.
"""

from benchmarks.conftest import run_once
from repro.experiments import ext_advisor_loop as mod
from repro.sim.parallel import RunSpec


def test_ext_advisor_loop(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec("ext-advisor", {"capacity_gib": 40}, seed=42, horizon_days=200.0),
    )

    stats = result.per_strategy
    timid = stats["static-0.4"]
    paranoid = stats["static-1.0"]
    adaptive = stats["adaptive"]

    # Fixed annotations force the paper's dilemma: timid producers get
    # turned away under pressure, paranoia buys admission at full spend.
    assert timid["admission_rate"] < 0.7
    assert paranoid["admission_rate"] > 0.95
    assert paranoid["mean_importance"] == 1.0

    # The feedback loop escapes it: near-paranoid admission...
    assert adaptive["admission_rate"] > 0.85
    assert adaptive["admission_rate"] > timid["admission_rate"] + 0.2
    # ...at substantially lower importance spend, leaving headroom for
    # other users of the shared store.
    assert adaptive["mean_importance"] < 0.9
    assert adaptive["mean_importance"] < paranoid["mean_importance"] - 0.1

    # Achieved lifetimes scale with the importance actually paid.
    assert timid["mean_life_days"] < adaptive["mean_life_days"] <= (
        paranoid["mean_life_days"] + 1.0
    )

    save_artifact("ext_advisor_loop", mod.render(result))
