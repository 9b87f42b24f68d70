"""Flat key-value run configuration for the command-line harness.

Grammar: one ``key = value`` pair per line, dotted keys, ``#`` comments
(outside quotes).  Strings may be quoted, and their quotes must pair up;
numbers are bare.  Unknown keys and unpaired quotes are rejected with the
line and column of the offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import UsageError
from .minkowski import GeneralizedMinkowskiSpace
from .norms import NormSpec
from .numerics import Tolerances

_NORM_KINDS = ("euclidean", "pnorm", "max")
# a line up to its first # outside quotes, or to its first quote that does not pair up
_UNCOMMENTED = re.compile(r"""(?:[^#"']|"[^"]*"|'[^']*')*""")

# config key -> (field of RunConfig, or of Tolerances for "tol." keys; value type)
KNOWN_KEYS = {
    "space.s.norm": ("s_kind", str),
    "space.s.p": ("s_p", float),
    "space.s.dim": ("s_dim", int),
    "space.t.norm": ("t_kind", str),
    "space.t.p": ("t_p", float),
    "space.t.dim": ("t_dim", int),
    "seed": ("seed", int),
    "trials": ("trials", int),
    "nodes": ("nodes", int),
    "out": ("out", str),
    "tol.eq": ("eq_tol", float),
    "tol.fd": ("fd_tol", float),
    "tol.opt": ("opt_tol", float),
    "tol.class": ("class_tol", float),
}

@dataclass(frozen=True)
class RunConfig:
    s_kind: str = "euclidean"
    s_p: float | None = None
    s_dim: int = 2
    t_kind: str = "euclidean"
    t_p: float | None = None
    t_dim: int = 1
    seed: int = 42
    trials: int = 200
    nodes: int = 16
    out: str | None = None  # classify and distance write no CSV without it; verify defaults to verify_report.csv
    tolerances: Tolerances = field(default_factory=Tolerances)

    def _norm(self, block: str, kind: str, p, dim: int) -> NormSpec:
        if p is not None and kind != "pnorm":
            raise UsageError(f"key space.{block}.p is read only with space.{block}.norm = \"pnorm\", not {kind!r}")
        if kind == "euclidean":
            return NormSpec.euclidean(dim)
        if kind == "pnorm":
            if p is None:
                raise UsageError("pnorm requires a p value (key space.<block>.p)")
            return NormSpec.pnorm(p, dim)
        if kind == "max":
            return NormSpec.max_norm(dim)
        raise UsageError(f"unknown norm kind {kind!r}; expected one of {_NORM_KINDS}")

    def s_norm(self) -> NormSpec:
        return self._norm("s", self.s_kind, self.s_p, self.s_dim)

    def t_norm(self) -> NormSpec:
        return self._norm("t", self.t_kind, self.t_p, self.t_dim)

    def space(self) -> GeneralizedMinkowskiSpace:
        return GeneralizedMinkowskiSpace(self.s_norm(), self.t_norm())


def _parse_value(key: str, raw: str, lineno: int, col: int):
    want = KNOWN_KEYS[key][1]
    raw = raw.strip()
    if want is str:
        if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
            return raw[1:-1]
        return raw
    try:
        return want(raw) if want is not int else int(raw, 10)
    except ValueError:
        raise UsageError(
            f"line {lineno}: cannot parse {raw!r} as {want.__name__} for key {key!r}",
            line=lineno,
            column=col,
        ) from None


def parse_config(text: str) -> dict:
    """Parse config text to a {key: value} mapping, validating keys."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        end = _UNCOMMENTED.match(line).end()
        stripped, unpaired = line[:end], line[end : end + 1] in ("'", '"')
        if not (stripped.strip() or unpaired):
            continue
        if "=" not in stripped:
            raise UsageError(
                f"line {lineno}: expected 'key = value'", line=lineno, column=1
            )
        key_part, value_part = stripped.split("=", 1)
        key = key_part.strip()
        col = line.find(key) + 1
        if key not in KNOWN_KEYS:
            raise UsageError(
                f"line {lineno}, column {col}: unknown key {key!r}", line=lineno, column=col
            )
        if key in values:
            raise UsageError(
                f"line {lineno}: duplicate key {key!r}", line=lineno, column=col
            )
        if unpaired:  # where the value ends is not guessed
            raise UsageError(
                f"line {lineno}, column {end + 1}: unpaired quote {line[end]!r} in the value of key {key!r}",
                line=lineno,
                column=end + 1,
            )
        vcol = line.find("=") + 2
        values[key] = _parse_value(key, value_part, lineno, vcol)
    return values


def config_from_mapping(values: dict) -> RunConfig:
    """Build a config from parsed values; absent keys keep the dataclass defaults."""
    run = {KNOWN_KEYS[k][0]: v for k, v in values.items() if not k.startswith("tol.")}
    tol = {KNOWN_KEYS[k][0]: v for k, v in values.items() if k.startswith("tol.")}
    cfg = RunConfig(**run, tolerances=Tolerances(**tol))
    cfg.space()  # validate eagerly so config errors surface at parse time
    return cfg


def load_config(path: str | None) -> RunConfig:
    """Read a config file, or the defaults when there is none."""
    values: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values = parse_config(fh.read())
        except OSError as err:
            raise UsageError(f"cannot read config {path!r}: {err}") from None
    return config_from_mapping(values)
