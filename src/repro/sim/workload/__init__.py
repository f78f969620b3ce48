"""Workload generators for the paper's three evaluation scenarios.

* :mod:`repro.sim.workload.single_app` — Section 5.1's single application
  class: hourly arrivals whose rate cap ramps 0.5 → 0.7 → 1.0 → 1.3 GB/hr
  across the first four quarters.
* :mod:`repro.sim.workload.calendar` — the academic calendar behind
  Table 1 (term boundaries and per-term two-step lifetimes).
* :mod:`repro.sim.workload.lecture` — Section 5.2's single-instructor
  lecture capture (university cameras + student interpretations).
* :mod:`repro.sim.workload.university` — Section 5.3's university-wide
  capture (2,321 courses across a Besteffs cluster).
* :mod:`repro.sim.workload.downloads` — the Figure 8 download-popularity
  trace synthesiser.
* :mod:`repro.sim.workload.mixer` — merge multiple arrival streams in
  time order.

Each name below resolves on first access (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_getattr

_LAZY = {
    "AcademicCalendar": "repro.sim.workload.calendar",
    "DiurnalModulation": "repro.sim.workload.diurnal",
    "DiurnalProfile": "repro.sim.workload.diurnal",
    "DownloadTraceConfig": "repro.sim.workload.downloads",
    "OFFICE_HOURS_PROFILE": "repro.sim.workload.diurnal",
    "ReadRequest": "repro.sim.workload.readers",
    "build_read_schedule": "repro.sim.workload.readers",
    "semester_break_holidays": "repro.sim.workload.diurnal",
    "LectureCaptureWorkload": "repro.sim.workload.lecture",
    "LectureConfig": "repro.sim.workload.lecture",
    "RateRamp": "repro.sim.workload.single_app",
    "SingleAppWorkload": "repro.sim.workload.single_app",
    "Term": "repro.sim.workload.calendar",
    "TermSpec": "repro.sim.workload.calendar",
    "UniversityConfig": "repro.sim.workload.university",
    "UniversityWorkload": "repro.sim.workload.university",
    "Workload": "repro.sim.workload.base",
    "merge_streams": "repro.sim.workload.mixer",
    "student_lifetime_for_day": "repro.sim.workload.calendar",
    "synthesize_download_trace": "repro.sim.workload.downloads",
    "university_lifetime_for_day": "repro.sim.workload.calendar",
}

__all__ = list(_LAZY)

__getattr__ = lazy_getattr(globals(), _LAZY)
