"""Environment-variable knob parsing, shared across the execution stack.

Every runtime toggle in this repo follows the same convention: an
explicit argument wins, otherwise the environment decides, and the
falsy spellings are exactly ``"" / 0 / false / no / off`` (case- and
whitespace-insensitive).  ``joins.executor`` and ``repro.engine`` both
resolve ``REPRO_PROFILE`` / ``REPRO_TRACE_OUT`` through these helpers
so the spellings can never drift apart.
"""

from __future__ import annotations

import os

#: spellings parsed as False (anything else truthy), per the repo convention
FALSY = ("", "0", "false", "no", "off")


def env_flag(name: str, default: bool = False) -> bool:
    """Boolean environment knob: unset means ``default``."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in FALSY


def resolve_flag(explicit: "bool | None", env_name: str,
                 default: bool = False) -> bool:
    """The explicit argument when given, else the environment knob."""
    if explicit is not None:
        return explicit
    return env_flag(env_name, default)


def env_int(name: str, default: int = 0) -> int:
    """Integer environment knob: unset/empty means ``default``.

    A non-integer spelling raises ``ValueError`` naming the variable —
    a silently-ignored ``REPRO_WORKERS=four`` would masquerade as the
    single-process default.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw, 10)
    except ValueError:
        raise ValueError(
            f"environment variable {name}={raw!r} is not an integer"
        ) from None


def env_str(name: str, default: str = "") -> str:
    """String environment knob, stripped; empty/unset means ``default``."""
    raw = os.environ.get(name, "").strip()
    return raw or default


def resolve_str(explicit: "str | None", env_name: str,
                default: str = "") -> str:
    """The explicit argument when given (non-empty), else the environment."""
    if explicit:
        return explicit
    return env_str(env_name, default)
