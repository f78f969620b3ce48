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
"""

from repro.sim.workload.base import Workload
from repro.sim.workload.single_app import RateRamp, SingleAppWorkload
from repro.sim.workload.calendar import (
    AcademicCalendar,
    Term,
    TermSpec,
    student_lifetime_for_day,
    university_lifetime_for_day,
)
from repro.sim.workload.lecture import LectureCaptureWorkload, LectureConfig
from repro.sim.workload.university import UniversityWorkload, UniversityConfig
from repro.sim.workload.diurnal import (
    OFFICE_HOURS_PROFILE,
    DiurnalModulation,
    DiurnalProfile,
    semester_break_holidays,
)
from repro.sim.workload.downloads import DownloadTraceConfig, synthesize_download_trace
from repro.sim.workload.mixer import merge_streams
from repro.sim.workload.readers import ReadRequest, build_read_schedule

__all__ = [
    "AcademicCalendar",
    "DiurnalModulation",
    "DiurnalProfile",
    "DownloadTraceConfig",
    "OFFICE_HOURS_PROFILE",
    "ReadRequest",
    "build_read_schedule",
    "semester_break_holidays",
    "LectureCaptureWorkload",
    "LectureConfig",
    "RateRamp",
    "SingleAppWorkload",
    "Term",
    "TermSpec",
    "UniversityConfig",
    "UniversityWorkload",
    "Workload",
    "merge_streams",
    "student_lifetime_for_day",
    "synthesize_download_trace",
    "university_lifetime_for_day",
]
