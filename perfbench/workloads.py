"""Seeded inputs, operations and correctness checks of the benchmark workloads.

Every operation is one in-process ``atomwall <subcommand>`` call on a config
written during set-up, so each operation parses its config and builds its
models again, as each CLI user does.  The seed jitters the physical
parameters by at most one percent; it changes the inputs, not the amount of
work.

Correctness: each free energy an operation prints is compared with values
computed during set-up.  Each comparison has a bound, and an output beyond
any of its bounds fails.

- ``sweep_ideal_static``: the closed-form geometric series.
- ``sweep_plasma``: ``oracle.py``, which shares no numerical code with
  atomwall.  Bound: the tolerances the request promises,
  ``series_rel_tol + quad_rel_tol``.
- ``table_tabulated``: the library itself at tighter tolerances (bound:
  the sum of the tolerances both requests of a column promise, plus
  ``kk.rel_tol`` for a tabulated wall), and ``oracle.py`` on the analytic
  models the tables were sampled from (bound ``SAMPLING_BOUND``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from atomwall import constants, dataio, lifshitz
from atomwall.errors import ConvergenceError

T_K = 300.0
TOL = {"series_rel_tol": 1e-9, "quad_rel_tol": 1e-9}
KK_REL_TOL = 1e-6  # the default of KKSettings, which the table config keeps
# Library reference tolerances.  quad_rel_tol 1e-11 raises ConvergenceError
# near 10-20 nm on a 9 eV plasma wall, so the reference falls back to 1e-10.
REF_SERIES_TOL = 1e-13
REF_QUAD_TOLS = (1e-11, 1e-10)
REF_KK = {"rel_tol": 1e-10, "grid_points_per_decade": 64}
# How far a free energy from the sampled n, k and alpha tables may stand
# from the analytic Drude metal and oscillator they sample; 2.2e-5 measured.
SAMPLING_BOUND = 1e-4

OSC_EV, OSC_F = 1.18, 0.5935   # one-oscillator metastable-helium-like atom
ALPHA0_AU = 315.63
OMEGA_P_EV, NU_EV = 9.0, 0.035


@dataclass
class Op:
    """One CLI call and the checks on its output."""

    command: str
    argv: list
    out: Path
    evals: int                 # (separation, model) pairs evaluated
    checks: list = field(default_factory=list)  # (column, expected values, bound)


class Jitter:
    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def __call__(self, value: float, share: float = 0.01) -> float:
        return float(value * (1.0 + share * self._rng.uniform(-1.0, 1.0)))

    def shrink(self, lo: float, hi: float, share: float = 0.01):
        """A range inside [lo, hi], each end moved inward by up to ``share``."""
        return (float(lo * (1.0 + share * self._rng.uniform())),
                float(hi * (1.0 - share * self._rng.uniform())))


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


def _separations_m(doc: dict):
    lo, hi, n = doc["separations_nm"]["log_range"]
    return [float(a) * 1e-9 for a in np.geomspace(lo, hi, n)]


def _library_free_energies(config, atom, wall):
    """Library free energies of one model pair at the reference tolerances."""
    out = []
    for a in config.separations:
        for quad_tol in REF_QUAD_TOLS:
            tol = lifshitz.NumericalTolerances(series_rel_tol=REF_SERIES_TOL,
                                               quad_rel_tol=quad_tol)
            req = lifshitz.ComputationRequest(atom=atom, wall=wall, a=float(a),
                                              T=config.temperature, tol=tol)
            try:
                out.append(lifshitz.free_energy(req).free_energy)
                break
            except ConvergenceError:
                if quad_tol == REF_QUAD_TOLS[-1]:
                    raise
    return out


def _sweep_op(workdir: Path, name: str, jit: Jitter, atom: dict, wall: dict, expected_of,
              count: int = 60) -> Op:
    lo, hi = jit.shrink(3.0, 10000.0)
    doc = {
        "temperature_K": T_K,
        "separations_nm": {"log_range": [lo, hi, count]},
        "atom": atom, "wall": wall,
        "tolerances": TOL, "output": {"format": "json"},
    }
    expected = [expected_of(a) for a in _separations_m(doc)]
    config = _write_json(workdir / f"{name}.json", doc)
    out = workdir / f"{name}.out"
    return Op("sweep", ["sweep", "--config", str(config), "--out", str(out)], out,
              evals=count, checks=[("free_energy_J", expected, sum(TOL.values()))])


def setup_sweep_plasma(workdir: Path, seed: int) -> Op:
    jit = Jitter(seed)
    osc_eV, strength, omega_p_eV = jit(OSC_EV), jit(OSC_F), jit(OMEGA_P_EV)
    alpha = oracle.oscillator_alpha(constants.ev_to_angular(osc_eV), strength)
    eps = oracle.plasma_eps(constants.ev_to_angular(omega_p_eV))
    return _sweep_op(workdir, "sweep_plasma", jit,
                     {"model": "oscillators", "entries": [[osc_eV, strength]]},
                     {"model": "plasma", "omega_p_eV": omega_p_eV},
                     lambda a: oracle.free_energy(a, T_K, alpha, eps))


def geometric_series_free_energy(alpha0: float, a: float, T: float) -> float:
    """Closed form of the Matsubara sum for an ideal metal and a static atom."""
    tau = lifshitz.matsubara_zeta(1, a, T)
    q = math.exp(-tau)
    omq = -math.expm1(-tau)
    bracket = 2.0 + 2.0 * (tau * tau * q * (1.0 + q) / omq ** 3
                           + 2.0 * tau * q / omq ** 2 + 2.0 * q / omq)
    return -(constants.K_B * T * alpha0) / (8.0 * a ** 3) * bracket


def setup_sweep_ideal_static(workdir: Path, seed: int) -> Op:
    jit = Jitter(seed)
    alpha0_au = jit(ALPHA0_AU)
    alpha0 = constants.au_volume_to_si(alpha0_au)
    return _sweep_op(workdir, "sweep_ideal_static", jit,
                     {"model": "static", "alpha0_au": alpha0_au}, {"model": "ideal_metal"},
                     lambda a: geometric_series_free_energy(alpha0, a, T_K))


def _write_drude_table(path: Path, omega_p_eV: float, nu_eV: float, rows: int = 200):
    """energy_eV n k rows of a Drude metal, eps = 1 - wp^2/(w (w + i nu))."""
    energy = np.geomspace(1e-3, 1e4, rows)
    omega = constants.ev_to_angular(energy)
    wp, nu = constants.ev_to_angular(omega_p_eV), constants.ev_to_angular(nu_eV)
    root = np.sqrt(1.0 - wp ** 2 / (omega * (omega + 1j * nu)))
    path.write_text("".join(f"{float(e)!r} {float(n)!r} {float(k)!r}\n"
                            for e, n, k in zip(energy, root.real, root.imag)))


def _write_alpha_table(path: Path, osc_eV: float, strength: float, rows: int = 120):
    """xi_eV alpha_au rows of a one-oscillator atom, from xi = 0 up to 50 eV."""
    xi_eV = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, rows - 1)])
    w = constants.ev_to_angular(osc_eV)
    alpha = (constants.OSCILLATOR_PREFACTOR * strength
             / (w ** 2 + constants.ev_to_angular(xi_eV) ** 2))
    alpha_au = alpha / constants.AU_POLARIZABILITY
    path.write_text("".join(f"{float(x)!r} {float(v)!r}\n" for x, v in zip(xi_eV, alpha_au)))


def setup_table_tabulated(workdir: Path, seed: int, count: int = 12) -> Op:
    jit = Jitter(seed)
    omega_p, nu = jit(OMEGA_P_EV), jit(NU_EV)
    osc_eV, strength = jit(OSC_EV), jit(OSC_F)
    _write_drude_table(workdir / "metal_n_k.txt", omega_p, nu)
    _write_alpha_table(workdir / "atom_alpha.txt", osc_eV, strength)
    (workdir / "atom_oscillator.txt").write_text(f"{osc_eV!r} {strength!r}\n")
    # The range is not jittered: whether a tabulated wall builds its KK grid
    # once or twice per operation depends on the last bits of the shortest
    # separation, which would make the work differ from seed to seed.
    doc = {
        "temperature_K": T_K,
        "separations_nm": {"log_range": [3.0, 10000.0, count]},
        "reference": {
            "atom": {"model": "tabulated_alpha", "file": "atom_alpha.txt"},
            "wall": {"model": "tabulated", "file": "metal_n_k.txt", "kind": "metal",
                     "drude": {"omega_p_eV": omega_p, "nu_eV": nu}},
        },
        "variants": [
            {"label": "ideal_metal", "wall": {"model": "ideal_metal"}},
            {"label": "single_oscillator",
             "atom": {"model": "oscillators", "file": "atom_oscillator.txt"}},
            {"label": "plasma", "wall": {"model": "plasma", "omega_p_eV": omega_p}},
        ],
        "tolerances": TOL,
        "output": {"format": "json"},
    }

    # the library at tighter tolerances and a finer KK grid
    tight = dict(doc, kk=REF_KK)
    del tight["tolerances"], tight["output"]
    ref = dataio.parse_run_config(_write_json(workdir / "table.ref.json", tight))
    reference = _library_free_energies(ref, ref.atom, ref.wall)
    ref_bound = sum(TOL.values()) + KK_REL_TOL
    checks = [("abs_free_energy_ref_J", [abs(v) for v in reference], ref_bound)]
    for variant in ref.variants:
        values = _library_free_energies(ref, variant.atom, variant.wall)
        tabulated = type(variant.wall) is type(ref.wall)
        bound = sum(TOL.values()) + (KK_REL_TOL if tabulated else 0.0) + ref_bound
        checks.append((variant.label, [v / r for v, r in zip(values, reference)], bound))

    # the oracle on the analytic models the tables sample
    wp, nu_w = constants.ev_to_angular(omega_p), constants.ev_to_angular(nu)
    alpha = oracle.oscillator_alpha(constants.ev_to_angular(osc_eV), strength)
    walls = {"ref": oracle.drude_eps(wp, nu_w), "ideal_metal": None,
             "single_oscillator": oracle.drude_eps(wp, nu_w), "plasma": oracle.plasma_eps(wp)}
    for label, eps in walls.items():
        values = [abs(oracle.free_energy(a, T_K, alpha, eps)) for a in _separations_m(doc)]
        checks.append((f"abs_free_energy_{label}_J", values, SAMPLING_BOUND))

    config = _write_json(workdir / "table.json", doc)
    out = workdir / "table.out"
    return Op("table", ["table", "--config", str(config), "--out", str(out)], out,
              evals=count * (1 + len(ref.variants)), checks=checks)


SETUPS = {
    "sweep_plasma": setup_sweep_plasma,
    "sweep_ideal_static": setup_sweep_ideal_static,
    "table_tabulated": setup_table_tabulated,
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def read_output(op: Op):
    """The JSON rows of ``op``'s output by column.

    A table also gets ``abs_free_energy_<variant>_J``, a variant's factor
    times the reference's |F|, for the comparison with the oracle.
    """
    rows = json.loads(op.out.read_text(encoding="utf-8"))["rows"]
    columns = {key: [float(r[key]) for r in rows] for key in rows[0]}
    ref = columns.get("abs_free_energy_ref_J")
    if ref is not None:
        for key in [k for k in columns if k not in ("a_nm", "abs_free_energy_ref_J")]:
            columns[f"abs_free_energy_{key}_J"] = [f * r for f, r in zip(columns[key], ref)]
    return columns


def worst_error(op: Op, output: dict) -> float:
    """Largest relative error of ``output`` as a share of its bound; above 1 fails.

    Raises ValueError when the output has the wrong shape.
    """
    worst = 0.0
    for column, want, bound in op.checks:
        got = output[column]
        if len(got) != len(want):
            raise ValueError(f"{column}: {len(got)} rows where {len(want)} were expected")
        errors = [abs(g - w) / abs(w) for g, w in zip(got, want)]
        worst = max(worst, max(errors) / bound)
    return worst
