"""Experiment drivers — one module per paper table/figure.

Every driver exposes ``execute(spec)`` returning a result dataclass plus a
``render(result)`` producing the printed reproduction (tables and ASCII
charts); :mod:`repro.experiments.registry` names them for the CLI and the
benchmark suite.  The shared setup names below resolve on first access
(:mod:`repro._lazy`), so importing the registry loads no simulator.

========================  =====================================================
``fig2_storage_requirements``  cumulative offered bytes over a year
``fig3_lifetimes``             lifetime achieved vs eviction day, 3 policies
``fig4_rejections``            requests turned down under full storage
``fig5_timeconstant``          Palimpsest time constant at 3 window sizes
``fig6_density``               instantaneous storage importance density
``fig7_cdf``                   byte-importance CDF at density ≈ 0.8369
``fig8_downloads``             lecture downloads per day (synthetic trace)
``table1_parameters``          Table 1 lifetime parameters per term
``fig9_lecture_lifetimes``     lecture-capture lifetimes achieved
``fig10_reclamation_importance``  importance at reclamation, 80 vs 120 GB
``fig11_lecture_timeconstant`` time constant, lecture scenario
``fig12_lecture_density``      density, lecture scenario
``sec53_university``           university-wide Besteffs summary
========================  =====================================================
"""

from repro._lazy import lazy_getattr

_LAZY = dict.fromkeys(
    ("LectureSetup", "POLICY_NO_IMPORTANCE", "POLICY_PALIMPSEST", "POLICY_TEMPORAL",
     "SingleAppSetup", "build_single_app_scenario", "run_lecture_scenario",
     "run_single_app_scenario"),
    "repro.experiments.common",
)

__all__ = list(_LAZY)

__getattr__ = lazy_getattr(globals(), _LAZY)
