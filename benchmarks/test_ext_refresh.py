"""Extension bench: the cost of Palimpsest-style rejuvenation.

Puts numbers on the paper's argument against application-driven refresh
(Sections 2 and 5.1.2): surviving on a FIFO store costs heavy write
amplification, and optimistic sojourn estimates lose objects irreparably.
A temporal-importance annotation achieves the same goal with zero
maintenance writes.
"""

from benchmarks.conftest import run_once
from repro.experiments import ext_refresh as mod
from repro.sim.parallel import RunSpec


def test_ext_refresh(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec("ext-refresh", seed=42, horizon_days=200.0),
    )

    # Within every estimation window, refreshing earlier (smaller safety
    # factor) costs more writes and loses fewer objects.
    for window in ("hour", "day", "month"):
        eager = result.outcomes[(window, 0.25)]
        lazy = result.outcomes[(window, 0.9)]
        assert eager.refreshes > lazy.refreshes
        assert eager.lost <= lazy.lost

    # Survival is expensive: every configuration that keeps losses under
    # 10% pays at least 5x write amplification.
    safe = [o for o in result.outcomes.values() if o.loss_fraction < 0.10]
    assert safe, "some configuration should achieve survival"
    assert min(o.write_amplification for o in safe) > 5.0

    # And lazy configurations really do lose data (the paper's
    # "irreparably lost" failure mode).
    lossy = [o for o in result.outcomes.values() if o.loss_fraction > 0.3]
    assert lossy

    save_artifact("ext_refresh", mod.render(result))
