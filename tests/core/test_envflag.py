"""The shared environment-knob parsing helpers (repro.core.envflag)."""

from __future__ import annotations

import pytest

from repro.core.envflag import env_flag, env_str, resolve_flag, resolve_str


class TestEnvFlag:
    @pytest.mark.parametrize("raw", ["", "0", "false", "no", "off",
                                     " FALSE ", "Off", "  0  "])
    def test_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG") is False

    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on", "anything"])
    def test_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG") is True

    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG") is False
        assert env_flag("REPRO_TEST_FLAG", default=True) is True

    def test_empty_is_falsy_even_with_true_default(self, monkeypatch):
        # an explicitly-empty variable is a set-but-falsy spelling, not
        # "unset": the repo convention treats it as False
        monkeypatch.setenv("REPRO_TEST_FLAG", "")
        assert env_flag("REPRO_TEST_FLAG", default=True) is False


class TestResolveFlag:
    def test_explicit_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "1")
        assert resolve_flag(False, "REPRO_TEST_FLAG") is False
        monkeypatch.setenv("REPRO_TEST_FLAG", "0")
        assert resolve_flag(True, "REPRO_TEST_FLAG") is True

    def test_none_falls_back_to_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "yes")
        assert resolve_flag(None, "REPRO_TEST_FLAG") is True
        monkeypatch.delenv("REPRO_TEST_FLAG")
        assert resolve_flag(None, "REPRO_TEST_FLAG") is False


class TestEnvStr:
    def test_strips_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_OUT", "  /tmp/trace.json  ")
        assert env_str("REPRO_TEST_OUT") == "/tmp/trace.json"
        monkeypatch.setenv("REPRO_TEST_OUT", "   ")
        assert env_str("REPRO_TEST_OUT", default="fallback") == "fallback"
        monkeypatch.delenv("REPRO_TEST_OUT")
        assert env_str("REPRO_TEST_OUT") == ""

    def test_resolve_str_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_OUT", "/env/path")
        assert resolve_str("/explicit", "REPRO_TEST_OUT") == "/explicit"
        assert resolve_str(None, "REPRO_TEST_OUT") == "/env/path"
        assert resolve_str("", "REPRO_TEST_OUT") == "/env/path"

