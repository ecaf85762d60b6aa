"""Reading of data files and JSON run configurations.

All on-disk quantities are user-facing units (photon energies in eV,
separations in nm, polarizabilities in atomic units) and are converted to SI
immediately on load.  Data files are plain text with '#' comments and
whitespace- or comma-separated columns:

    optical table:      energy_eV  n  k        -> OpticalTable
    oscillator file:    omega_eV   f0n         -> OscillatorSet
    polarizability:     xi_eV      alpha_au    -> TabulatedAlpha

Each model checks its own rows; a row it rejects is reported here as
``file:line:``, or as ``entries[i]:`` for a config's inline oscillators.  A
config's eV and au values are converted by multiplication, so a negative one
is checked by the model that holds it, as the readers' values are.

Run configurations are JSON; see the README for the full schema and an
annotated example.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import AU_POLARIZABILITY, EV_TO_RAD_PER_S
from .dielectric import (
    DrudeLowFreq,
    IdealMetal,
    KKSettings,
    NinhamParsegian,
    OpticalTable,
    Plasma,
    StaticPermittivity,
    TabulatedKK,
)
from .errors import ConfigError, DomainError, ParseError, ValidationError
from .lifshitz import NumericalTolerances
from .polarizability import OscillatorSet, StaticAlpha, TabulatedAlpha


def read_numeric_rows(path, n_cols: int):
    """(line numbers, values) of a text file's numeric rows; values is a (rows, n_cols) array.

    Lines are stripped, '#' comments and blank lines skipped, commas treated
    as whitespace.  Wrong column counts or non-numeric tokens raise a
    ParseError naming the line.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as err:
        raise ParseError(f"not UTF-8 text: {err}", path=path) from err
    numbers, tokens = [], []
    for lineno, raw in enumerate(lines, start=1):
        row = raw.split("#", 1)[0].replace(",", " ").split()
        if not row:
            continue
        if len(row) != n_cols:
            raise ParseError(f"expected {n_cols} columns, got {len(row)}", path=path, line=lineno)
        numbers.append(lineno)
        tokens.append(row)
    try:
        values = np.array(tokens, dtype=float).reshape(len(tokens), n_cols)
    except ValueError:
        for lineno, row in zip(numbers, tokens):   # name the first row that does not convert
            try:
                [float(tok) for tok in row]
            except ValueError:
                raise ParseError(f"non-numeric value in row {row}", path=path,
                                 line=lineno) from None
        raise
    return np.array(numbers, dtype=int), values


def _read_model(path, n_cols: int, build):
    """``build(*columns)`` on a data file's numeric rows.

    The model checks its rows; a ValidationError it raises is re-raised naming
    this file, and the line of its ``row`` if it has one.
    """
    path = Path(path)
    lines, data = read_numeric_rows(path, n_cols)
    try:
        return build(*data.T)
    except ValidationError as err:
        line = None if err.row is None else int(lines[err.row])
        raise ValidationError(str(err), path=path, line=line) from err


def parse_optical_table(path, drude: DrudeLowFreq | None = None,
                        high_exponent: float = OpticalTable.high_exponent) -> OpticalTable:
    """Load an `energy_eV n k` file into an OpticalTable (SI frequencies)."""
    return _read_model(path, 3, lambda energy, n, k: OpticalTable(
        energy * EV_TO_RAD_PER_S, n, k, low_ext=drude, high_exponent=high_exponent))


def _oscillators(omega, f) -> OscillatorSet:
    """An OscillatorSet from columns of `omega_eV f0n` rows (SI frequencies)."""
    return OscillatorSet(strengths=tuple(f), frequencies=tuple(omega * EV_TO_RAD_PER_S))


def parse_oscillator_file(path) -> OscillatorSet:
    """Load an `omega_eV f0n` file into an OscillatorSet (SI frequencies)."""
    return _read_model(path, 2, _oscillators)


def parse_alpha_table(path) -> TabulatedAlpha:
    """Load a `xi_eV alpha_au` file into a TabulatedAlpha (SI units)."""
    return _read_model(path, 2, lambda xi, alpha: TabulatedAlpha(
        xi * EV_TO_RAD_PER_S, alpha * AU_POLARIZABILITY))


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_TOP_LEVEL_KEYS = {
    "temperature_K", "separations_nm", "atom", "wall", "reference", "variants",
    "grid", "tolerances", "kk", "output",
}
# the table command's fixed columns; variant labels name the others
TABLE_COLUMNS = ("a_nm", "abs_free_energy_ref_J")


@dataclass
class GridSpec:
    xi_min: float  # rad/s
    xi_max: float
    points: int = 200

    def __post_init__(self):
        if not (0.0 < self.xi_min < self.xi_max < math.inf) or self.points < 2:
            raise ConfigError("grid needs 0 < xi_min < xi_max < inf and at least 2 points")

    def frequencies(self) -> np.ndarray:
        return np.geomspace(self.xi_min, self.xi_max, self.points)


@dataclass
class Variant:
    label: str
    atom: object
    wall: object


@dataclass
class RunConfig:
    """A fully resolved run: models built, files loaded, units converted."""

    atom: object | None
    wall: object | None
    separations: np.ndarray | None  # m, ascending
    temperature: float | None
    tolerances: NumericalTolerances
    kk_settings: KKSettings
    output_format: str
    output_path: str | None
    variants: list = field(default_factory=list)
    grid: GridSpec | None = None
    digest: str = ""
    separations_nm: list | None = None


def _convert(x, kind, where: str):
    """Config value ``x``, named ``where``, checked against its ``kind`` and converted to SI.

    A float kind is the factor that takes a number to SI, ``int`` asks for a whole
    number and ``str`` for a string; ``[kind]`` is a list of any length and a tuple a
    list of one value per kind.  Any other kind is a function of ``x`` and ``where``.
    """
    if type(kind) in (list, tuple):
        kinds = kind * len(x) if type(kind) is list and type(x) is list else kind
        if type(x) is not list or len(x) != len(kinds):
            shape = "a list" if type(kind) is list else f"a list of {len(kind)}"
            raise ConfigError(f"{where}: expected {shape}, got {x!r}")
        return [_convert(v, k, where) for v, k in zip(x, kinds)]
    if kind is str:
        if type(x) is not str:   # an integer path would be opened as a file descriptor
            raise ConfigError(f"{where}: expected a string, got {x!r}")
        return x
    if kind is not int and type(kind) is not float:
        return kind(x, where)
    if type(x) not in (int, float):   # JSON true is not 1, nor "5" 5
        raise ConfigError(f"{where}: expected a number, got {x!r}")
    if kind is not int:
        return float(x) * kind
    if not (math.isfinite(x) and int(x) == x):
        raise ConfigError(f"{where}: expected a whole number, got {x!r}")
    return int(x)


def _log_range(x, where: str) -> np.ndarray:
    lo, hi, count = _convert(x, (1.0, 1.0, int), where)
    if lo <= 0.0 or hi <= lo or count < 1:
        raise ConfigError(f"{where} needs 0 < lo < hi and a positive count")
    return np.geomspace(lo, hi, count)


def _resolve(base: Path, file: str) -> Path:
    """``file`` as an absolute path, a relative one taken from ``base``."""
    p = Path(file)
    if not p.is_absolute():
        p = (base / p).resolve()
    if not p.is_file():
        raise ConfigError(f"referenced file does not exist or is not a file: {p}")
    return p


def _oscillator_atom(v: dict, base: Path, _kk) -> OscillatorSet:
    if isinstance(v["rows"], str):
        return parse_oscillator_file(_resolve(base, v["rows"]))
    try:   # built as a file's rows are; a bad row is named by its index
        return _oscillators(*np.array(v["rows"]).reshape(-1, 2).T)
    except ValidationError as err:
        raise err if err.row is None else ValidationError(f"entries[{err.row}]: {err}")


def _tabulated_wall(v: dict, base: Path, kk: KKSettings) -> TabulatedKK:
    # built inside the reader: a fault of the table's rows names the table, not the config
    return _read_model(_resolve(base, v["file"]), 3, lambda energy, n, k: TabulatedKK(
        OpticalTable(energy * EV_TO_RAD_PER_S, n, k, low_ext=v.get("drude"),
                     high_exponent=v.get("high_exponent", OpticalTable.high_exponent)),
        v["kind"], settings=kk))


# Each config block's table: make(fields, config directory, KK settings), and its keys,
# key -> (kind, group), each kind as _convert reads it.  Each group is required: a block
# gives exactly one of its keys, whose value is the group's field.  A key with no group is
# optional and is its own field.  An atom or wall is read by the table of "<model tag> atom"
# or "<model tag> wall".
_BLOCKS = {
    "static atom": (lambda v, *_: StaticAlpha(**v), {
        "alpha0_au": (AU_POLARIZABILITY, "alpha0"), "alpha0_m3": (1.0, "alpha0")}),
    "oscillators atom": (_oscillator_atom, {
        "file": (str, "rows"), "entries": ([(1.0, 1.0)], "rows")}),
    "tabulated_alpha atom": (lambda v, base, _: parse_alpha_table(_resolve(base, v["file"])),
                             {"file": (str, "file")}),
    "ideal_metal wall": (lambda *_: IdealMetal(), {}),
    "plasma wall": (lambda v, *_: Plasma(**v), {
        "omega_p_eV": (EV_TO_RAD_PER_S, "omega_p"), "omega_p_rad_s": (1.0, "omega_p")}),
    "static wall": (lambda v, *_: StaticPermittivity(**v), {"eps0": (1.0, "eps_static")}),
    "ninham_parsegian wall": (lambda v, *_: NinhamParsegian(**v), {
        "terms": ([(1.0, EV_TO_RAD_PER_S)], "terms")}),
    "tabulated wall": (_tabulated_wall, {
        "file": (str, "file"), "kind": (str, "kind"), "high_exponent": (1.0, None),
        "drude": (lambda x, where: _build(x, where, "drude"), None)}),
    "drude": (lambda v, *_: DrudeLowFreq(**v), {
        "omega_p_eV": (EV_TO_RAD_PER_S, "omega_p"), "nu_eV": (EV_TO_RAD_PER_S, "nu")}),
    "separations_nm": (lambda v, *_: np.asarray(v["a_nm"], dtype=float), {
        "list": ([1.0], "a_nm"), "log_range": (_log_range, "a_nm")}),
    "tolerances": (lambda v, *_: NumericalTolerances(**v), {
        "series_rel_tol": (1.0, None), "quad_rel_tol": (1.0, None), "max_terms": (int, None)}),
    # grid_points_per_decade is accepted, for older configs, and has no effect
    "kk": (lambda v, *_: KKSettings(v.get("rel_tol", KKSettings.rel_tol)), {
        "rel_tol": (1.0, None), "grid_points_per_decade": (int, None)}),
    "grid": (lambda v, *_: GridSpec(**v), {
        "xi_min_eV": (EV_TO_RAD_PER_S, "xi_min"), "xi_max_eV": (EV_TO_RAD_PER_S, "xi_max"),
        "points": (int, None)}),
    "output": (lambda v, *_: (v.get("format", "csv"), v.get("path")), {
        "format": (str, None), "path": (str, None)}),
    # a reference's atom and wall are read by their model tags once it is checked
    "reference": (lambda v, *_: v, {
        "atom": (lambda x, _: x, "atom"), "wall": (lambda x, _: x, "wall")}),
}


def _check_keys(spec, block: str, known):
    """Raise a ConfigError naming ``block`` ("" at the top level) and spec's keys not in ``known``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{block or 'config root'} must be a JSON object")
    unknown = set(spec) - set(known)
    if unknown:
        where = f"{block}: " if block else ""
        raise ConfigError(f"{where}unknown keys {sorted(unknown)}")


def _build(spec, block: str, name: str, base: Path | None = None, kk: KKSettings | None = None):
    """Config block ``spec`` made by the table ``_BLOCKS[name]``; each error names ``block``."""
    make, keys = _BLOCKS[name]
    _check_keys(spec, block, keys)
    groups = {group: [key for key in keys if keys[key][1] == group] for _, group in keys.values()
              if group}
    if any(sum(key in spec for key in g) != 1 for g in groups.values()):
        raise ConfigError(f"{block}: {name} needs " + " and ".join(
            ("exactly one of " if len(g) > 1 else "") + ", ".join(map(repr, g))
            for g in groups.values()))
    v = {}
    for key, x in spec.items():
        kind, group = keys[key]
        v[group or key] = _convert(x, kind, f"{block}.{key}")
    try:
        return make(v, base, kk)
    except (ConfigError, DomainError) as err:   # a data file's error keeps its file:line:
        raise err if getattr(err, "path", None) else type(err)(f"{block}: {err}")


def _model(spec, block: str, what: str, base: Path, kk: KKSettings | None = None):
    """The atom or wall ``spec``, made by the table of its model tag."""
    if not isinstance(spec, dict) or "model" not in spec:
        raise ConfigError(f"{block} must be an object with a 'model' tag")
    name = f"{spec['model']} {what}"
    if name not in _BLOCKS:
        raise ConfigError(f"{block}: unknown {what} model tag {spec['model']!r}")
    return _build({k: x for k, x in spec.items() if k != "model"}, block, name, base, kk)


def parse_run_config(path) -> RunConfig:
    """Load a JSON run configuration and build its models.

    An unreadable file raises OSError.  A ConfigError or DomainError that
    names no file, and a value of the wrong type or shape, are re-raised as a
    ValidationError naming this config; a data file's error keeps its path.
    """
    path = Path(path)
    raw_bytes = path.read_bytes()
    try:
        doc = json.loads(raw_bytes.decode("utf-8"))
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", path=path, line=err.lineno) from err
    except UnicodeDecodeError as err:
        raise ParseError(f"not UTF-8 text: {err}", path=path) from err
    try:
        return _build_config(doc, path.parent, hashlib.sha256(raw_bytes).hexdigest())
    except (ConfigError, DomainError) as err:
        if getattr(err, "path", None) is not None:
            raise
        raise ValidationError(str(err), path=path) from err
    except (TypeError, ValueError, KeyError, IndexError, AttributeError, OverflowError) as err:
        raise ValidationError(f"malformed config ({type(err).__name__}: {err})",
                              path=path) from err


def _build_config(doc, base: Path, digest: str) -> RunConfig:
    _check_keys(doc, "", _TOP_LEVEL_KEYS)

    tolerances = _build(doc.get("tolerances", {}), "tolerances", "tolerances")
    kk_settings = _build(doc.get("kk", {}), "kk", "kk")

    reference = doc.get("reference")
    atom_spec = doc.get("atom")
    wall_spec = doc.get("wall")
    if reference is not None:
        if atom_spec is not None or wall_spec is not None:
            raise ConfigError("give either top-level atom/wall or a reference block, not both")
        reference = _build(reference, "reference", "reference")
        atom_spec, wall_spec = reference["atom"], reference["wall"]
    if doc.get("variants") and reference is None:
        raise ConfigError("variants require a reference block")

    where = "reference." if reference is not None else ""
    atom = _model(atom_spec, f"{where}atom", "atom", base) if atom_spec is not None else None
    wall = (_model(wall_spec, f"{where}wall", "wall", base, kk_settings)
            if wall_spec is not None else None)

    variants = []
    columns = set(TABLE_COLUMNS)
    for i, vspec in enumerate(doc.get("variants", [])):
        block = f"variants[{i}]"
        _check_keys(vspec, block, {"label", "atom", "wall"})
        label = vspec.get("label")
        if not isinstance(label, str) or not label:
            raise ConfigError(f"variant {i} needs a label")
        if label in columns or not set(label).isdisjoint(",\r\n"):
            raise ConfigError(f"variant label {label!r} must be unique, differ from "
                              f"{' and '.join(TABLE_COLUMNS)}, and hold no ',' or line break")
        columns.add(label)
        if "atom" not in vspec and "wall" not in vspec:
            raise ConfigError(f"variant {label!r} overrides neither atom nor wall")
        variants.append(Variant(
            label=label,
            atom=_model(vspec["atom"], f"{block}.atom", "atom", base) if "atom" in vspec else atom,
            wall=(_model(vspec["wall"], f"{block}.wall", "wall", base, kk_settings)
                  if "wall" in vspec else wall),
        ))

    separations = separations_nm = None
    if "separations_nm" in doc:
        a_nm = _build(doc["separations_nm"], "separations_nm", "separations_nm")
        if a_nm.size == 0:
            raise ConfigError("at least one separation is required")
        if not np.all((a_nm > 0.0) & (a_nm < math.inf)):
            raise ConfigError("separations must be finite and positive")
        if np.any(np.diff(a_nm) <= 0.0):
            raise ConfigError("separations must be strictly ascending")
        separations, separations_nm = a_nm * 1e-9, [float(x) for x in a_nm]

    temperature = None
    if "temperature_K" in doc:
        temperature = _convert(doc["temperature_K"], 1.0, "temperature_K")
        if not 0.0 < temperature < math.inf:
            raise ConfigError("temperature must be finite and positive")

    grid = _build(doc["grid"], "grid", "grid") if "grid" in doc else None
    output_format, output_path = _build(doc.get("output", {}), "output", "output")
    if output_format not in ("csv", "json"):
        raise ConfigError("output format must be csv or json")

    return RunConfig(
        atom=atom, wall=wall,
        separations=separations, temperature=temperature,
        tolerances=tolerances, kk_settings=kk_settings,
        output_format=output_format, output_path=output_path,
        variants=variants, grid=grid, digest=digest,
        separations_nm=separations_nm,
    )
