"""Tests for the unit helpers."""

from repro import units


class TestTime:
    def test_constructors_compose(self):
        assert units.hours(1) == 60.0
        assert units.days(1) == 24 * units.hours(1)
        assert units.months(1) == 30 * units.days(1)
        assert units.years(1) == 365 * units.days(1)
        assert units.minutes(5) == 5.0

    def test_converters_invert_constructors(self):
        assert units.to_hours(units.hours(7.5)) == 7.5
        assert units.to_days(units.days(12)) == 12
        assert units.to_years(units.years(3)) == 3
        assert units.to_minutes(42.0) == 42.0


class TestBytes:
    def test_binary_multiples(self):
        assert units.kib(1) == 1024
        assert units.mib(1) == 1024**2
        assert units.gib(1) == 1024**3
        assert units.tib(1) == 1024**4

    def test_fractional_sizes_truncate_to_int(self):
        assert units.gib(0.5) == 512 * 1024**2
        assert isinstance(units.gib(0.5), int)

    def test_converters(self):
        assert units.to_gib(units.gib(80)) == 80.0
        assert units.to_tib(units.tib(2)) == 2.0
        assert units.to_mib(units.mib(3)) == 3.0
        assert units.to_kib(units.kib(9)) == 9.0


class TestPublicApi:
    def test_root_package_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports_resolve(self):
        import repro.analysis
        import repro.besteffs
        import repro.core
        import repro.ext
        import repro.sim

        for module in (repro.core, repro.sim, repro.besteffs, repro.analysis, repro.ext):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_error_hierarchy(self):
        from repro import errors

        for name in (
            "AnnotationError",
            "CapacityError",
            "StorageFullError",
            "SimulationError",
            "PlacementError",
            "OverlayError",
            "UnknownObjectError",
        ):
            exc_type = getattr(errors, name)
            assert issubclass(exc_type, errors.ReproError)

    def test_storage_full_error_carries_blocking_importance(self):
        from repro.errors import StorageFullError

        exc = StorageFullError("full", blocking_importance=0.7)
        assert exc.blocking_importance == 0.7
