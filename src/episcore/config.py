"""Flat key-value config files for the CLI.

Format: one ``key = value`` per line, ``#`` comments, blank lines ignored.
The keys are the fields of the config dataclasses a command builds
(``SynthConfig`` for ``synth``, ``GroupingConfig`` for ``pipeline group``,
``ScorerConfig`` plus ``TrainConfig`` for ``train``), and every default is
the dataclass's own. Vector values are comma-separated floats; ranges are
``lo,hi`` integer pairs; per-tier channel offsets use dotted keys, e.g.

    d_in = 8
    noise_std = 0.25
    signature = 0,0,0,0,0.5,0.5,0.5,0.5
    channel_offset.wild = 0.75,0,0,0,0,0,0,0
    turns = 2,6

An unknown key, a malformed line or a bad value is a PARSE_ERROR with its
line number, and a file that is not UTF-8 a PARSE_ERROR naming it. The
seed is not a config key: it comes only from ``--seed`` (or
``$EPISCORE_SEED``).
"""

from __future__ import annotations

import dataclasses
import typing
from pathlib import Path

import numpy as np

from .episodes import _read_text
from .errors import ManifestParseError

CHANNEL_OFFSET_PREFIX = "channel_offset."


def _floats(value: str) -> np.ndarray:
    return np.array([float(v) for v in value.split(",") if v.strip() != ""])


def _int_range(value: str) -> tuple[int, int]:
    parts = [int(v) for v in value.split(",")]
    if len(parts) == 1:
        return parts[0], parts[0]
    if len(parts) != 2:
        raise ValueError(f"expected 'lo,hi', got {value!r}")
    return parts[0], parts[1]


# Field type -> value parser. ``np.ndarray | None`` is a vector whose None
# default __post_init__ fills in (SynthConfig.signature).
_PARSERS = {int: int, float: float, str: str, tuple[int, int]: _int_range, np.ndarray | None: _floats}


def load(path: str | Path | None, *classes: type, **fixed) -> tuple:
    """Build one instance of each config dataclass from a ``key = value`` file.

    Each key is parsed by the type of the field it names and goes to every
    requested class that has that field; a ``channel_offset.<tier>`` key
    fills ``channel_offsets``. ``fixed`` values (the command-line seed) go
    to the classes that have the field and may not appear in the file. With
    no ``path``, every class gets its defaults plus ``fixed``.
    """
    hints = {}
    for cls in classes:
        hints.update(typing.get_type_hints(cls))
    lines = _read_text(path).splitlines() if path else []
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ManifestParseError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fixed:
            raise ManifestParseError(
                f"{key!r} cannot be set in a config file; pass --{key.replace('_', '-')}", line=lineno
            )
        offsets = key.startswith(CHANNEL_OFFSET_PREFIX) and "channel_offsets" in hints
        parse = _floats if offsets else _PARSERS.get(hints.get(key))
        if parse is None:
            raise ManifestParseError(f"unknown config key {key!r}", line=lineno)
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ManifestParseError(f"bad value for {key!r}: {exc}", line=lineno) from exc
        if offsets:
            values.setdefault("channel_offsets", {})[key[len(CHANNEL_OFFSET_PREFIX) :]] = parsed
        else:
            values[key] = parsed
    values.update(fixed)
    configs = []
    for cls in classes:
        names = {f.name for f in dataclasses.fields(cls)}
        try:
            configs.append(cls(**{k: v for k, v in values.items() if k in names}))
        except ValueError as exc:
            raise ManifestParseError(f"{cls.__name__}: {exc}") from exc
    return tuple(configs)
