"""Error hierarchy and configuration validation."""

import pytest

from repro import errors
from repro.config import EngineConfig, MachineProfile, scaled_rows


class TestErrorHierarchy:
    def test_all_errors_derive_from_h2oerror(self):
        for name in (
            "SQLError",
            "ParseError",
            "AnalysisError",
            "StorageError",
            "SchemaError",
            "LayoutError",
            "CatalogError",
            "ExecutionError",
            "CodegenError",
            "CostModelError",
            "AdaptationError",
            "WorkloadError",
            "BenchmarkError",
        ):
            assert issubclass(getattr(errors, name), errors.H2OError)

    def test_parse_error_carries_position(self):
        err = errors.ParseError("bad token", position=17)
        assert err.position == 17
        assert "17" in str(err)

    def test_parse_error_without_position(self):
        err = errors.ParseError("bad token")
        assert err.position is None

    def test_schema_error_is_storage_error(self):
        assert issubclass(errors.SchemaError, errors.StorageError)


class TestMachineProfile:
    def test_words_per_line(self):
        machine = MachineProfile(cache_line_bytes=64, word_bytes=8)
        assert machine.words_per_line == 8

    def test_frozen(self):
        machine = MachineProfile()
        with pytest.raises(AttributeError):
            machine.cache_line_bytes = 128


class TestEngineConfig:
    def test_defaults_valid(self):
        config = EngineConfig()
        assert config.window_size == 20
        assert config.min_window <= config.window_size <= config.max_window

    def test_rejects_nonpositive_window(self):
        with pytest.raises(errors.AdaptationError):
            EngineConfig(window_size=0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(errors.AdaptationError):
            EngineConfig(window_size=10, min_window=20, max_window=30)

    def test_with_overrides(self):
        config = EngineConfig().with_overrides(use_codegen=False)
        assert config.use_codegen is False
        assert EngineConfig().use_codegen is True


class TestScale:
    def test_scaled_rows_default(self, monkeypatch):
        monkeypatch.delenv("H2O_SCALE", raising=False)
        assert scaled_rows(100_000) == 100_000

    def test_scaled_rows_scales(self, monkeypatch):
        monkeypatch.setenv("H2O_SCALE", "0.5")
        assert scaled_rows(100_000) == 50_000

    def test_scaled_rows_minimum(self, monkeypatch):
        monkeypatch.setenv("H2O_SCALE", "0.0001")
        assert scaled_rows(100_000, minimum=1000) == 1000

    def test_invalid_scale(self, monkeypatch):
        monkeypatch.setenv("H2O_SCALE", "banana")
        with pytest.raises(ValueError):
            scaled_rows(10)

    def test_negative_scale(self, monkeypatch):
        monkeypatch.setenv("H2O_SCALE", "-2")
        with pytest.raises(ValueError):
            scaled_rows(10)
