"""Pinned bits: free energies and CLI outputs must not change under refactors.

The goldens were generated with numpy 2.4 on x86-64 with AVX-512.  numpy's
float64 exp and log kernels depend on the CPU's SIMD level, so on another
CPU a last-bit mismatch here, with the batch tests in ``test_batch.py``
still passing, calls for regenerating the goldens rather than for a fix.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from atomwall import (
    ComputationRequest,
    IdealMetal,
    NinhamParsegian,
    OscillatorSet,
    Plasma,
    StaticAlpha,
    TabulatedKK,
    au_volume_to_si,
    cli,
    ev_to_angular,
    free_energy,
)
from atomwall.constants import AU_POLARIZABILITY, OSCILLATOR_PREFACTOR
from atomwall.dielectric import METAL, eps_grid
from atomwall.lifshitz import _sum_grid_span

from conftest import drude_nk, make_drude_table

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

WALLS = {
    "plasma": lambda: Plasma(ev_to_angular(9.0)),
    "ninham_parsegian": lambda: NinhamParsegian(((1.93, ev_to_angular(0.13)),
                                                 (0.91, ev_to_angular(12.5)))),
    "ideal_metal": IdealMetal,
    "tabulated_drude": lambda: TabulatedKK(make_drude_table(), METAL),
}
ATOMS = {
    "static": StaticAlpha(au_volume_to_si(315.63)),
    "oscillator": OscillatorSet((0.5935,), (ev_to_angular(1.18),)),
}

# (wall, atom, a [m]) at 300 K: (free_energy.hex(), n_terms_used, max_quad_nodes)
GOLDEN = {
    ('plasma', 'static', 3e-09): ('-0x1.e02689774ebe6p-73', 49, 98),
    ('plasma', 'static', 4e-08): ('-0x1.7b89986a3b59fp-85', 49, 98),
    ('plasma', 'static', 1e-06): ('-0x1.b9d1717838ae6p-103', 18, 50),
    ('plasma', 'static', 1e-05): ('-0x1.0182a96ae0dc3p-114', 2, 25),
    ('plasma', 'oscillator', 3e-09): ('-0x1.4d031fa05efa4p-75', 49, 98),
    ('plasma', 'oscillator', 4e-08): ('-0x1.fea11b36c40c8p-87', 49, 98),
    ('plasma', 'oscillator', 1e-06): ('-0x1.a8c62a08bcaf0p-103', 18, 50),
    ('plasma', 'oscillator', 1e-05): ('-0x1.017f90a0832aep-114', 2, 25),
    ('ninham_parsegian', 'static', 3e-09): ('-0x1.3e1f460c316b1p-73', 49, 98),
    ('ninham_parsegian', 'static', 4e-08): ('-0x1.3198ba8a69cafp-86', 49, 98),
    ('ninham_parsegian', 'static', 1e-06): ('-0x1.5195da3c33347p-104', 18, 50),
    ('ninham_parsegian', 'static', 1e-05): ('-0x1.2e32dd0f234dfp-115', 2, 25),
    ('ninham_parsegian', 'oscillator', 3e-09): ('-0x1.ff28e1d4d07cdp-77', 49, 98),
    ('ninham_parsegian', 'oscillator', 4e-08): ('-0x1.79205bf847e3ep-88', 49, 98),
    ('ninham_parsegian', 'oscillator', 1e-06): ('-0x1.48fae68e1eccfp-104', 18, 50),
    ('ninham_parsegian', 'oscillator', 1e-05): ('-0x1.2e2f3f12fda38p-115', 2, 25),
    ('ideal_metal', 'static', 3e-09): ('-0x1.494b697a5d707p-69', 49, 0),
    ('ideal_metal', 'static', 4e-08): ('-0x1.5569a12f128fdp-84', 49, 0),
    ('ideal_metal', 'static', 1e-06): ('-0x1.c930d48f74318p-103', 18, 0),
    ('ideal_metal', 'static', 1e-05): ('-0x1.0182b6420f517p-114', 2, 0),
    ('ideal_metal', 'oscillator', 3e-09): ('-0x1.87636c7da203cp-75', 49, 0),
    ('ideal_metal', 'oscillator', 4e-08): ('-0x1.259e2dc6ec778p-86', 49, 0),
    ('ideal_metal', 'oscillator', 1e-06): ('-0x1.b6ad425a50871p-103', 18, 0),
    ('ideal_metal', 'oscillator', 1e-05): ('-0x1.017f9d3a69d0ap-114', 2, 0),
    ('tabulated_drude', 'static', 3e-09): ('-0x1.e0258d8bc178bp-73', 49, 98),
    ('tabulated_drude', 'static', 4e-08): ('-0x1.7b2823b928a9bp-85', 49, 98),
    ('tabulated_drude', 'static', 1e-06): ('-0x1.b8fe188953844p-103', 18, 50),
    ('tabulated_drude', 'static', 1e-05): ('-0x1.0182a83a3f239p-114', 2, 25),
    ('tabulated_drude', 'oscillator', 3e-09): ('-0x1.4ccd726d57b52p-75', 49, 98),
    ('tabulated_drude', 'oscillator', 4e-08): ('-0x1.fe35dd52b44aep-87', 49, 98),
    ('tabulated_drude', 'oscillator', 1e-06): ('-0x1.a7ff72e635ee7p-103', 18, 50),
    ('tabulated_drude', 'oscillator', 1e-05): ('-0x1.017f8f758f46ap-114', 2, 25),
}

# (subcommand, bundled config, format): sha256 of the output file
CLI_GOLDEN = {
    ("alpha", "alpha_oscillators.json", "csv"): "3c89a8a31e81f398a6f7b359f19a178131b7dde759ed879db5fc3b13173011b6",
    ("alpha", "alpha_oscillators.json", "json"): "c96dd20cad84f6a32987d52081f7b04c6dec18859e66e4a2463687c7cd39a32b",
    ("energy", "energy_plasma_static.json", "csv"): "f6640935b0b8f8f73013a3e6f038227cc17f97de40b26fb6423b6b04c2ccc5a9",
    ("epsilon", "epsilon_ninham_parsegian.json", "csv"): "84b8f10b7f39a7319a4bd213f0340eefc6679a368f56ed519dae8fa9ab92e493",
    ("epsilon", "epsilon_ninham_parsegian.json", "json"): "c6db6e701930dc41df54865139827c3f11514ea31ccf1e4c6809f456d534d5b5",
    ("sweep", "sweep_normalized.json", "csv"): "71ad52003378a08549314bec83e1b5766a76c243dedd60832992102abfdd2df4",
    ("sweep", "sweep_normalized.json", "json"): "c73d58a07b5dac85a2044093d77593ce6883257cb5feda3c1ec83335745bc8d7",
}
# the bundled config that reads tables shipped apart from the repository
NEEDS_DATA = {"table_au_vs_models.json"}


@pytest.mark.parametrize("wall_name", WALLS)
def test_free_energy_bits(wall_name):
    wall = WALLS[wall_name]()
    for (name, atom_name, a), (f_hex, n_terms, nodes) in GOLDEN.items():
        if name != wall_name:
            continue
        res = free_energy(ComputationRequest(atom=ATOMS[atom_name], wall=wall, a=a, T=300.0))
        assert (res.free_energy.hex(), res.n_terms_used, res.max_quad_nodes) == \
            (f_hex, n_terms, nodes), (atom_name, a)


def test_every_bundled_config_is_pinned():
    pinned = {name for _, name, _ in CLI_GOLDEN}
    assert pinned | NEEDS_DATA == {p.name for p in CONFIGS.glob("*.json")}


@pytest.mark.parametrize("command,name,fmt", list(CLI_GOLDEN))
def test_cli_output_bytes(tmp_path, command, name, fmt):
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(CONFIGS / name), "--out", str(out),
                     "--format", fmt]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_GOLDEN[command, name, fmt]


# eps_grid of TabulatedKK(make_drude_table(), METAL) over the span of a 300 K
# sum, read at 150 log-spaced points of that span
GRID_PROBES = 150
GRID_GOLDEN_SHA256 = "d436881abae65fbcd5f959134e0a2b33b0e409af1557197752030cc4e23851cf"
GRID_GOLDEN = {0: "0x1.4072cc87e925dp+11", 37: "0x1.179f54a5e92cbp+4",
               74: "0x1.17340b99f5b73p+0", 111: "0x1.002043aa17b1fp+0",
               149: "0x1.000026ed6c945p+0"}


def test_tabulated_sum_grid_bits():
    lo, hi = _sum_grid_span(300.0)
    values = eps_grid(TabulatedKK(make_drude_table(), METAL), lo, hi)(
        np.geomspace(lo, hi, GRID_PROBES))
    hexes = [float(v).hex() for v in values]
    assert {i: hexes[i] for i in GRID_GOLDEN} == GRID_GOLDEN
    assert hashlib.sha256(",".join(hexes).encode()).hexdigest() == GRID_GOLDEN_SHA256


def _write_tabulated_configs(directory: Path):
    """epsilon and table configs on a 200-row Drude n,k table and a tabulated alpha."""
    energy = np.geomspace(1e-3, 1e4, 200)
    n, k = drude_nk(ev_to_angular(energy), ev_to_angular(9.0), ev_to_angular(0.035))
    (directory / "metal_n_k.txt").write_text(
        "".join(f"{float(e)!r} {float(a)!r} {float(b)!r}\n" for e, a, b in zip(energy, n, k)))
    xi_eV = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 119)])
    w = ev_to_angular(1.18)
    alpha_au = (OSCILLATOR_PREFACTOR * 0.5935 / (w ** 2 + ev_to_angular(xi_eV) ** 2)
                / AU_POLARIZABILITY)
    (directory / "atom_alpha.txt").write_text(
        "".join(f"{float(x)!r} {float(v)!r}\n" for x, v in zip(xi_eV, alpha_au)))
    (directory / "atom_oscillator.txt").write_text("1.18 0.5935\n")
    wall = {"model": "tabulated", "file": "metal_n_k.txt", "kind": "metal",
            "drude": {"omega_p_eV": 9.0, "nu_eV": 0.035}}
    docs = {
        # below, across and above the table's 1e-3 to 1e4 eV
        "epsilon": {"wall": wall,
                    "grid": {"xi_min_eV": 1e-4, "xi_max_eV": 1e5, "points": 90}},
        "table": {
            "temperature_K": 300.0,
            "separations_nm": {"log_range": [3.0, 10000.0, 12]},
            "reference": {"atom": {"model": "tabulated_alpha", "file": "atom_alpha.txt"},
                          "wall": wall},
            "variants": [
                {"label": "ideal_metal", "wall": {"model": "ideal_metal"}},
                {"label": "single_oscillator",
                 "atom": {"model": "oscillators", "file": "atom_oscillator.txt"}},
                {"label": "plasma", "wall": {"model": "plasma", "omega_p_eV": 9.0}},
            ],
        },
    }
    for command, doc in docs.items():
        (directory / f"{command}.json").write_text(json.dumps(doc, indent=1))


# (subcommand, format): sha256 of the output on the configs written above
TABULATED_CLI_GOLDEN = {
    ("epsilon", "csv"): "a4de3cfb9d8e4e67a66fb4a601536418e1d1867b40f85435ad24e0cf732b1f08",
    ("epsilon", "json"): "6f3858c7e5e2e7fb16dc56c123fa7b677a33322eae07acc5e344b19f9753a515",
    ("table", "csv"): "34550c24b89ef749611fd20754077de4c1cb887502cd0fa0411dce944a86c2a4",
    ("table", "json"): "cc5bbb097b07cd06b147f583559c6d1dd21868f959301f45f724810b2dac63b4",
}


@pytest.mark.parametrize("command,fmt", list(TABULATED_CLI_GOLDEN))
def test_tabulated_cli_output_bytes(tmp_path, command, fmt):
    _write_tabulated_configs(tmp_path)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(tmp_path / f"{command}.json"),
                     "--out", str(out), "--format", fmt]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TABULATED_CLI_GOLDEN[command, fmt]
