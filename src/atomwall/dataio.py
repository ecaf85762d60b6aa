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
# the keys of each model tag besides "model"
_ATOM_KEYS = {"static": {"alpha0_au", "alpha0_m3"}, "oscillators": {"file", "entries"},
              "tabulated_alpha": {"file"}}
_WALL_KEYS = {"ideal_metal": set(), "plasma": {"omega_p_eV", "omega_p_rad_s"},
              "static": {"eps0"}, "ninham_parsegian": {"terms"},
              "tabulated": {"file", "kind", "drude", "high_exponent"}}
# the table command's fixed columns; variant labels name the others
TABLE_COLUMNS = ("a_nm", "abs_free_energy_ref_J")


@dataclass
class GridSpec:
    xi_min: float  # rad/s
    xi_max: float
    points: int

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


def _resolve(base: Path, spec: dict) -> Path:
    """spec['file'] as an absolute path, a relative one taken from ``base``; spec is not changed."""
    p = Path(spec["file"])
    if not p.is_absolute():
        p = (base / p).resolve()
    if not p.is_file():
        raise ConfigError(f"referenced file does not exist or is not a file: {p}")
    return p


def _check_keys(spec, block: str, known):
    """Raise a ConfigError naming ``block`` ("" at the top level) and spec's keys not in ``known``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{block or 'config root'} must be a JSON object")
    unknown = set(spec) - set(known)
    if unknown:
        where = f"{block}: " if block else ""
        raise ConfigError(f"{where}unknown keys {sorted(unknown)}")


def _build_atom(spec: dict, base: Path, block: str):
    if not isinstance(spec, dict) or "model" not in spec:
        raise ConfigError("atom spec must be an object with a 'model' tag")
    model = spec["model"]
    if model not in _ATOM_KEYS:
        raise ConfigError(f"unknown atom model tag {model!r}")
    _check_keys(spec, block, {"model", *_ATOM_KEYS[model]})
    if model == "static":
        if "alpha0_au" in spec:
            return StaticAlpha(float(spec["alpha0_au"]) * AU_POLARIZABILITY)
        if "alpha0_m3" in spec:
            return StaticAlpha(float(spec["alpha0_m3"]))
        raise ConfigError("static atom needs alpha0_au or alpha0_m3")
    if model == "oscillators":
        if "file" in spec:
            return parse_oscillator_file(_resolve(base, spec))
        if "entries" in spec:   # built as a file's rows are; a bad row is named by its index
            rows = np.array([(float(w), float(f)) for w, f in spec["entries"]]).reshape(-1, 2)
            try:
                return _oscillators(*rows.T)
            except ValidationError as err:
                raise err if err.row is None else ValidationError(f"entries[{err.row}]: {err}")
        raise ConfigError("oscillators atom needs 'file' or 'entries' ([omega_eV, f0n] pairs)")
    if "file" not in spec:
        raise ConfigError("tabulated_alpha atom needs 'file'")
    return parse_alpha_table(_resolve(base, spec))


def _build_wall(spec: dict, base: Path, kk_settings: KKSettings, block: str):
    if not isinstance(spec, dict) or "model" not in spec:
        raise ConfigError("wall spec must be an object with a 'model' tag")
    model = spec["model"]
    if model not in _WALL_KEYS:
        raise ConfigError(f"unknown wall model tag {model!r}")
    _check_keys(spec, block, {"model", *_WALL_KEYS[model]})
    if model == "ideal_metal":
        return IdealMetal()
    if model == "plasma":
        if "omega_p_eV" in spec:
            return Plasma(float(spec["omega_p_eV"]) * EV_TO_RAD_PER_S)
        if "omega_p_rad_s" in spec:
            return Plasma(float(spec["omega_p_rad_s"]))
        raise ConfigError("plasma wall needs omega_p_eV or omega_p_rad_s")
    if model == "static":
        if "eps0" not in spec:
            raise ConfigError("static wall needs eps0")
        return StaticPermittivity(float(spec["eps0"]))
    if model == "ninham_parsegian":
        terms = spec.get("terms")
        if not terms:
            raise ConfigError("ninham_parsegian wall needs 'terms' ([C_j, omega_j_eV] pairs)")
        return NinhamParsegian(tuple((float(c), float(w) * EV_TO_RAD_PER_S) for c, w in terms))
    if "file" not in spec or "kind" not in spec:
        raise ConfigError("tabulated wall needs 'file' and 'kind' (metal | dielectric)")
    drude = None
    if "drude" in spec:
        d = spec["drude"]
        _check_keys(d, f"{block}.drude", {"omega_p_eV", "nu_eV"})
        drude = DrudeLowFreq(omega_p=float(d["omega_p_eV"]) * EV_TO_RAD_PER_S,
                             nu=float(d["nu_eV"]) * EV_TO_RAD_PER_S)
    high_exponent = float(spec.get("high_exponent", OpticalTable.high_exponent))
    # built inside the reader: a fault of the table's rows names the table, not the config
    return _read_model(_resolve(base, spec), 3, lambda energy, n, k: TabulatedKK(
        OpticalTable(energy * EV_TO_RAD_PER_S, n, k, low_ext=drude,
                     high_exponent=high_exponent),
        spec["kind"], settings=kk_settings))


def _parse_separations(spec) -> tuple[np.ndarray, list]:
    if not isinstance(spec, dict):
        raise ConfigError("separations_nm must be {'list': [...]} or {'log_range': [lo, hi, n]}")
    _check_keys(spec, "separations_nm", {"list", "log_range"})
    if "list" in spec:
        a_nm = np.asarray([float(x) for x in spec["list"]], dtype=float)
    elif "log_range" in spec:
        lo, hi, count = spec["log_range"]
        if float(lo) <= 0.0 or float(hi) <= float(lo) or int(count) < 1:
            raise ConfigError("log_range needs 0 < lo < hi and a positive count")
        a_nm = np.geomspace(float(lo), float(hi), int(count))
    else:
        raise ConfigError("separations_nm must contain 'list' or 'log_range'")
    if a_nm.size == 0:
        raise ConfigError("at least one separation is required")
    if not np.all((a_nm > 0.0) & (a_nm < math.inf)):
        raise ConfigError("separations must be finite and positive")
    if np.any(np.diff(a_nm) <= 0.0):
        raise ConfigError("separations must be strictly ascending")
    return a_nm * 1e-9, [float(x) for x in a_nm]


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

    tolerances = _parse_tolerances(doc.get("tolerances"))
    kk_settings = _parse_kk(doc.get("kk"))

    reference = doc.get("reference")
    atom_spec = doc.get("atom")
    wall_spec = doc.get("wall")
    if reference is not None:
        if atom_spec is not None or wall_spec is not None:
            raise ConfigError("give either top-level atom/wall or a reference block, not both")
        _check_keys(reference, "reference", {"atom", "wall"})
        if "atom" not in reference or "wall" not in reference:
            raise ConfigError("reference block needs both atom and wall")
        atom_spec = reference["atom"]
        wall_spec = reference["wall"]
    if doc.get("variants") and reference is None:
        raise ConfigError("variants require a reference block")

    where = "reference." if reference is not None else ""
    atom = _build_atom(atom_spec, base, f"{where}atom") if atom_spec is not None else None
    wall = (_build_wall(wall_spec, base, kk_settings, f"{where}wall")
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
            atom=_build_atom(vspec["atom"], base, f"{block}.atom") if "atom" in vspec else atom,
            wall=(_build_wall(vspec["wall"], base, kk_settings, f"{block}.wall")
                  if "wall" in vspec else wall),
        ))

    separations = separations_nm = None
    if "separations_nm" in doc:
        separations, separations_nm = _parse_separations(doc["separations_nm"])

    temperature = None
    if "temperature_K" in doc:
        temperature = float(doc["temperature_K"])
        if not 0.0 < temperature < math.inf:
            raise ConfigError("temperature must be finite and positive")

    grid = None
    if "grid" in doc:
        grid_spec = doc["grid"]
        _check_keys(grid_spec, "grid", {"xi_min_eV", "xi_max_eV", "points"})
        try:
            grid = GridSpec(
                xi_min=float(grid_spec["xi_min_eV"]) * EV_TO_RAD_PER_S,
                xi_max=float(grid_spec["xi_max_eV"]) * EV_TO_RAD_PER_S,
                points=int(grid_spec.get("points", 200)),
            )
        except KeyError as err:
            raise ConfigError("grid needs xi_min_eV and xi_max_eV") from err

    out = doc.get("output", {})
    _check_keys(out, "output", {"format", "path"})
    output_format = out.get("format", "csv")
    if output_format not in ("csv", "json"):
        raise ConfigError("output format must be csv or json")

    return RunConfig(
        atom=atom, wall=wall,
        separations=separations, temperature=temperature,
        tolerances=tolerances, kk_settings=kk_settings,
        output_format=output_format, output_path=out.get("path"),
        variants=variants, grid=grid, digest=digest,
        separations_nm=separations_nm,
    )


def _parse_tolerances(spec) -> NumericalTolerances:
    if spec is None:
        return NumericalTolerances()
    casts = {"series_rel_tol": float, "quad_rel_tol": float, "max_terms": int}
    _check_keys(spec, "tolerances", casts)
    return NumericalTolerances(**{k: cast(spec[k]) for k, cast in casts.items() if k in spec})


def _parse_kk(spec) -> KKSettings:
    if spec is None:
        return KKSettings()
    # grid_points_per_decade is accepted, for older configs, and has no effect
    _check_keys(spec, "kk", {"rel_tol", "grid_points_per_decade"})
    return KKSettings(**{k: v for k, v in spec.items() if k == "rel_tol"})
