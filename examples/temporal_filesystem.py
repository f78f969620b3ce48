#!/usr/bin/env python3
"""The user-level temporal filesystem prototype (paper Section 6).

Files carry importance annotations instead of being persistent until
deleted: scratch and cache files fade first under pressure, important
documents persist, and the filesystem itself tells you what annotation a
new file needs to stick around.  Listing, re-annotating and deleting
files work as well.

Run with::

    python examples/temporal_filesystem.py
"""

from repro.core.importance import TwoStepImportance
from repro.errors import StorageFullError
from repro.fs import FileFadedError, TemporalFS
from repro.units import days, mib


def main() -> None:
    fs = TemporalFS(mib(24))
    day = days(1)

    # Ordinary writes: the default annotation policy grades by path.
    fs.write("/home/ada/thesis.tex", b"\\documentclass..." * 1000, 0 * day)
    fs.write("/tmp/build-scratch.o", b"\x7fELF" + b"\0" * mib(2), 0 * day)
    fs.write("/cache/search-index", b"idx" * mib(1), 0 * day)
    fs.write("/home/ada/cat.jpeg", b"JFIF" + b"\xff" * mib(2), 0 * day)
    for path in fs.files():
        stat = fs.stat(path, 0 * day)
        print(f"{path:26s} importance {stat.importance:.2f}, "
              f"expires day {stat.expires_at / day:.0f}")

    # Fill the volume with camera footage until the pressure bites.
    lifetime = TwoStepImportance(p=0.9, t_persist=days(10), t_wane=days(10))
    stored = 0
    try:
        while True:
            fs.write(f"/video/clip-{stored:03d}.mp4", b"v" * mib(2),
                     1 * day, lifetime=lifetime)
            stored += 1
    except StorageFullError as exc:
        print(f"\nvolume full for importance 0.9 after {stored} clips "
              f"(blocked at {exc.blocking_importance:.2f})")

    print(f"density now: {fs.density(1 * day):.3f}")
    print(f"faded under pressure: {fs.faded()}")

    # The cache entry is gone; the thesis survived.
    try:
        fs.read("/cache/search-index", 2 * day)
    except FileFadedError as exc:
        print(f"read failed as designed: {exc}")
    assert fs.read("/home/ada/thesis.tex", 2 * day)

    # Ask the volume what it takes to store something durable right now.
    advice = fs.advise(mib(2), persist_days=30, wane_days=30, now=2 * day)
    if advice.achievable:
        print(f"advisor: use importance {advice.annotation.p:.2f} "
              f"(threshold {advice.threshold:.2f}, margin {advice.margin:.2f})")
        fs.write("/home/ada/backup.tar", b"t" * mib(2), 2 * day,
                 lifetime=advice.annotation)
        print("backup stored with the advised annotation")
    else:
        print(f"advisor: {advice.detail}")

    # Traditional verbs still work next to fading: list a directory,
    # re-annotate a file (the paper's active intervention restarts its
    # clock), and delete one outright, which is not fading.
    print(f"/home/ada holds {fs.listdir('/home/ada')}")
    semester = TwoStepImportance(p=1.0, t_persist=days(90), t_wane=days(30))
    stat = fs.set_lifetime("/home/ada/thesis.tex", semester, 3 * day)
    print(f"thesis re-annotated: importance {stat.importance:.2f}, "
          f"expires day {stat.expires_at / day:.0f}")
    first, second = fs.listdir("/video")[:2]
    fs.remove(first, 3 * day)
    print(f"{first} removed: exists {fs.exists(first)}, "
          f"faded {first in fs.faded()}; {second} still there: {second in fs}")

if __name__ == "__main__":
    main()
