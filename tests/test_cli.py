"""End-to-end checks of the command-line surface via subprocess."""

import io
import json
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomwall import ev_to_angular

from conftest import NU, WP, drude_eps_analytic, drude_nk


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "atomwall", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return path


def base_config(**overrides):
    doc = {
        "temperature_K": 300.0,
        "separations_nm": {"list": [10.0, 100.0, 1000.0]},
        "atom": {"model": "static", "alpha0_au": 315.63},
        "wall": {"model": "plasma", "omega_p_eV": 9.0},
    }
    doc.update(overrides)
    return doc


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


class TestEnergy:
    def test_single_separation(self, tmp_path):
        cfg = write_config(tmp_path, base_config(separations_nm={"list": [50.0]}))
        result = run_cli("energy", "--config", str(cfg))
        assert result.returncode == 0
        lines = [l for l in result.stdout.splitlines() if l]
        assert len(lines) == 1
        assert "free_energy_J=-" in lines[0]
        assert "normalized=" in lines[0]

    def test_bad_config_path_is_usage_error(self, tmp_path):
        result = run_cli("energy", "--config", str(tmp_path / "missing.json"))
        assert result.returncode == 2
        assert result.stderr

    def test_zero_alpha_prints_zero_with_warning(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            atom={"model": "static", "alpha0_au": 0.0},
            separations_nm={"list": [50.0]},
        ))
        result = run_cli("energy", "--config", str(cfg))
        assert result.returncode == 0
        assert "free_energy_J=0" in result.stdout
        assert "warnings=" in result.stdout

    def test_config_validation_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, base_config(wall={"model": "wrong_tag"}))
        result = run_cli("energy", "--config", str(cfg))
        assert result.returncode == 3


class TestSweep:
    def test_rows_and_monotonicity(self, tmp_path):
        doc = base_config(separations_nm={"log_range": [3.0, 10000.0, 50]})
        cfg = write_config(tmp_path, doc)
        result = run_cli("sweep", "--config", str(cfg))
        assert result.returncode == 0
        header, rows = parse_csv(result.stdout)
        assert header == ["a_nm", "free_energy_J", "normalized", "n_terms"]
        assert len(rows) == 50
        magnitudes = [abs(float(r[1])) for r in rows]
        assert all(m2 < m1 for m1, m2 in zip(magnitudes, magnitudes[1:]))
        a_values = [float(r[0]) for r in rows]
        assert a_values == sorted(a_values)

    def test_single_point_matches_energy(self, tmp_path):
        doc = base_config(separations_nm={"list": [70.0]})
        cfg = write_config(tmp_path, doc)
        sweep = run_cli("sweep", "--config", str(cfg))
        energy = run_cli("energy", "--config", str(cfg))
        _, rows = parse_csv(sweep.stdout)
        f_sweep = rows[0][1]
        assert f"free_energy_J={f_sweep}" in energy.stdout

    def test_deterministic_and_digest(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        first = run_cli("sweep", "--config", str(cfg))
        second = run_cli("sweep", "--config", str(cfg))
        assert first.stdout == second.stdout
        assert first.stdout.startswith("# config_sha256=")

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        result = run_cli("sweep", "--config", str(cfg), "--format", "json")
        payload = json.loads(result.stdout)
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["a_nm"] == 10.0
        assert payload["config_sha256"]

    def test_out_file(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "sweep.csv"
        result = run_cli("sweep", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0
        assert out.read_text().startswith("# config_sha256=")


class TestTable:
    def test_identity_variant_factor_is_one(self, tmp_path):
        doc = {
            "temperature_K": 300.0,
            "separations_nm": {"list": [10.0, 100.0]},
            "reference": {"atom": {"model": "static", "alpha0_au": 315.63},
                          "wall": {"model": "plasma", "omega_p_eV": 9.0}},
            "variants": [
                {"label": "same", "wall": {"model": "plasma", "omega_p_eV": 9.0}},
            ],
        }
        cfg = write_config(tmp_path, doc)
        result = run_cli("table", "--config", str(cfg))
        assert result.returncode == 0
        header, rows = parse_csv(result.stdout)
        assert header == ["a_nm", "abs_free_energy_ref_J", "same"]
        for row in rows:
            assert float(row[2]) == pytest.approx(1.0, rel=1e-12)

    def test_missing_variants_is_validation_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        result = run_cli("table", "--config", str(cfg))
        assert result.returncode == 3

    @pytest.mark.parametrize("variants", [
        [{"label": "ideal", "wall": {"model": "ideal_metal"}}],
        # max_terms 1 fails the oscillator atom's sum (exit 4) if it is evaluated
        # before the reference is checked
        [{"label": "ideal", "wall": {"model": "ideal_metal"}},
         {"label": "oscillator", "atom": {"model": "oscillators", "entries": [[1.18, 0.5935]]}},
         {"label": "plasma", "wall": {"model": "plasma", "omega_p_eV": 5.0}}],
    ], ids=["variant_shares_the_atom", "variant_atom_that_cannot_converge"])
    def test_vanishing_reference_exits_2(self, tmp_path, variants):
        doc = {
            "temperature_K": 300.0,
            "separations_nm": {"list": [10.0, 100.0]},
            "reference": {"atom": {"model": "static", "alpha0_au": 0.0},
                          "wall": {"model": "plasma", "omega_p_eV": 9.0}},
            "variants": variants,
            "tolerances": {"max_terms": 1},
        }
        result = run_cli("table", "--config", str(write_config(tmp_path, doc)))
        _assert_one_error_line(result, 2)
        assert "reference free energy vanishes" in result.stderr


class TestDumps:
    def test_epsilon_plasma_hits_two_at_omega_p(self, tmp_path):
        doc = {
            "wall": {"model": "plasma", "omega_p_eV": 9.0},
            "grid": {"xi_min_eV": 0.9, "xi_max_eV": 9.0, "points": 7},
        }
        cfg = write_config(tmp_path, doc)
        result = run_cli("epsilon", "--config", str(cfg))
        assert result.returncode == 0
        header, rows = parse_csv(result.stdout)
        assert header == ["xi_rad_s", "value"]
        assert float(rows[-1][1]) == pytest.approx(2.0, rel=1e-12)
        values = [float(r[1]) for r in rows]
        assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))
        assert all(v >= 1.0 for v in values)

    def test_epsilon_static_constant_column(self, tmp_path):
        doc = {
            "wall": {"model": "static", "eps0": 3.84},
            "grid": {"xi_min_eV": 0.1, "xi_max_eV": 10.0, "points": 9},
        }
        cfg = write_config(tmp_path, doc)
        result = run_cli("epsilon", "--config", str(cfg))
        _, rows = parse_csv(result.stdout)
        assert {r[1] for r in rows} == {"3.84"}

    def test_epsilon_tabulated_kk_matches_drude(self, tmp_path):
        energies = np.geomspace(1e-3, 1e4, 300)
        n, k = drude_nk(ev_to_angular(energies))
        nk_file = tmp_path / "drude.nk"
        nk_file.write_text("\n".join(
            f"{e:.9e} {a:.9e} {b:.9e}" for e, a, b in zip(energies, n, k)) + "\n")
        doc = {
            "wall": {"model": "tabulated", "file": "drude.nk", "kind": "metal",
                     "drude": {"omega_p_eV": WP / ev_to_angular(1.0),
                               "nu_eV": NU / ev_to_angular(1.0)}},
            "grid": {"xi_min_eV": 0.01, "xi_max_eV": 60.0, "points": 25},
        }
        cfg = write_config(tmp_path, doc)
        result = run_cli("epsilon", "--config", str(cfg))
        assert result.returncode == 0
        _, rows = parse_csv(result.stdout)
        for xi_text, value_text in rows:
            xi, value = float(xi_text), float(value_text)
            assert value == pytest.approx(drude_eps_analytic(xi), rel=1e-3)

    def test_alpha_dump_monotone(self, tmp_path):
        doc = {
            "atom": {"model": "oscillators", "entries": [[1.18, 0.5935], [21.2, 1.3]]},
            "grid": {"xi_min_eV": 0.01, "xi_max_eV": 100.0, "points": 40},
        }
        cfg = write_config(tmp_path, doc)
        result = run_cli("alpha", "--config", str(cfg))
        assert result.returncode == 0
        _, rows = parse_csv(result.stdout)
        values = [float(r[1]) for r in rows]
        assert all(v > 0 for v in values)
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_missing_grid_is_validation_error(self, tmp_path):
        doc = {"wall": {"model": "plasma", "omega_p_eV": 9.0}}
        cfg = write_config(tmp_path, doc)
        result = run_cli("epsilon", "--config", str(cfg))
        assert result.returncode == 3


class TestTableWithTabulatedReference:
    def test_structure_on_synthetic_metal_data(self, tmp_path):
        """Full comparison-table pipeline on synthetic optics and alpha files."""
        energies = np.geomspace(1e-3, 1e4, 400)
        n, k = drude_nk(ev_to_angular(energies))
        (tmp_path / "metal.nk").write_text("\n".join(
            f"{e:.9e} {a:.9e} {b:.9e}" for e, a, b in zip(energies, n, k)) + "\n")
        xi_eV = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 80)))
        alpha_au = 315.63 / (1.0 + (xi_eV / 1.18) ** 2)
        (tmp_path / "alpha.dat").write_text("\n".join(
            f"{x:.9e} {a:.9e}" for x, a in zip(xi_eV, alpha_au)) + "\n")
        doc = {
            "temperature_K": 300.0,
            "separations_nm": {"list": [3.0, 30.0, 150.0]},
            "reference": {
                "atom": {"model": "tabulated_alpha", "file": "alpha.dat"},
                "wall": {"model": "tabulated", "file": "metal.nk", "kind": "metal",
                         "drude": {"omega_p_eV": WP / ev_to_angular(1.0),
                                   "nu_eV": NU / ev_to_angular(1.0)}},
            },
            "variants": [
                {"label": "ideal_metal", "wall": {"model": "ideal_metal"}},
                {"label": "plasma", "wall": {"model": "plasma",
                                             "omega_p_eV": WP / ev_to_angular(1.0)}},
            ],
        }
        cfg = write_config(tmp_path, doc, "table.json")
        result = run_cli("table", "--config", str(cfg))
        assert result.returncode == 0, result.stderr
        header, rows = parse_csv(result.stdout)
        assert header == ["a_nm", "abs_free_energy_ref_J", "ideal_metal", "plasma"]
        for row in rows:
            ref_abs, ideal, plasma = float(row[1]), float(row[2]), float(row[3])
            assert ref_abs > 0.0
            # an ideal metal binds more strongly than any finite-response wall
            assert ideal > 1.0
            assert plasma < ideal
        # reference magnitudes fall with separation
        assert float(rows[0][1]) > float(rows[1][1]) > float(rows[2][1])

    def test_plans_each_atom_once(self, tmp_path, monkeypatch):
        # the reference, ideal-metal and plasma columns share the tabulated atom's
        # plan; the single-oscillator column has its own
        from atomwall import cli, lifshitz

        from test_golden import _write_tabulated_configs

        planned = []
        plan = lifshitz._plan

        def counting(atom, T, tol, a):
            planned.append(atom)
            return plan(atom, T, tol, a)

        monkeypatch.setattr(lifshitz, "_plan", counting)
        _write_tabulated_configs(tmp_path)
        assert cli.main(["table", "--config", str(tmp_path / "table.json"),
                         "--out", str(tmp_path / "out")]) == 0
        assert [type(atom).__name__ for atom in planned] == ["TabulatedAlpha", "OscillatorSet"]


def _assert_one_error_line(result, code):
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


def _metal_wall(tmp_path, **drude):
    energies = np.geomspace(1e-3, 1e4, 40)
    n, k = drude_nk(ev_to_angular(energies))
    (tmp_path / "metal.nk").write_text("\n".join(
        f"{e:.9e} {a:.9e} {b:.9e}" for e, a, b in zip(energies, n, k)) + "\n")
    return {"model": "tabulated", "file": "metal.nk", "kind": "metal", "drude": drude}


_METAL = {"model": "tabulated", "file": "metal.nk", "kind": "metal"}
_BAD_ENTRY = "entries[1]: oscillator frequency and strength must be finite and positive"


class TestExitCodes:
    """Each bad input exits with its documented code and one ``error:`` line."""

    @pytest.mark.parametrize("case", [
        {"temperature_K": "warm"},
        {"wall": {"model": "plasma", "omega_p_eV": [9]}},
        {"atom": {"model": "oscillators", "entries": [[1.2]]}},
        {"tolerances": {"series_rel_tol": "tight"}},
        {"separations_nm": {"log_range": [3.0, 100.0]}},
        {"output": []},
    ], ids=["text_temperature", "list_omega_p", "short_entry", "text_tolerance",
            "short_log_range", "output_not_an_object"])
    def test_malformed_value_exits_3_and_leaves_out_alone(self, tmp_path, case):
        cfg = write_config(tmp_path, base_config(**case))
        out = tmp_path / "kept.csv"
        out.write_text("earlier output\n")
        result = run_cli("sweep", "--config", str(cfg), "--out", str(out))
        _assert_one_error_line(result, 3)
        assert str(cfg) in result.stderr
        assert out.read_text() == "earlier output\n"

    @pytest.mark.parametrize("case,message", [
        ({"wall": {"model": "static", "eps0": math.inf}}, "static permittivity"),
        ({"temperature_K": math.nan}, "temperature"),
        ({"temperature_K": math.inf}, "temperature"),
        ({"wall": {"model": "plasma", "omega_p_eV": math.nan}}, "plasma frequency"),
        ({"wall": {"model": "ninham_parsegian", "terms": [[math.nan, 10.0]]}}, "Ninham"),
        ({"wall": dict(_METAL, drude={"omega_p_eV": math.nan, "nu_eV": 0.035})}, "Drude"),
        ({"wall": dict(_METAL, drude={"omega_p_eV": 9.0, "nu_eV": 0.035},
                       high_exponent=math.nan)}, "exponent"),
        ({"tolerances": {"series_rel_tol": 1e-14}}, "series_rel_tol"),
        ({"tolerances": {"max_terms": math.inf}}, "OverflowError"),
        ({"separations_nm": {"list": [10.0, math.inf]}}, "separations"),
        ({"grid": {"xi_min_eV": 0.1, "xi_max_eV": math.inf}}, "grid"),
        ({"kk": {"rel_tol": 1.0}}, "KK rel_tol"),
        ({"atom": {"model": "nope"}}, "atom model tag"),
        ({"wall": {"model": "nope"}}, "wall model tag"),
        ({"atom": {"model": "oscillators", "entries": []}}, "at least one"),
        ({"wall": dict(_METAL, kind="semimetal")}, "material kind"),
        ({"atom": {"model": "oscillators", "entries": [[1.2, 0.3], [-2.5, 0.7]]}}, _BAD_ENTRY),
        ({"atom": {"model": "oscillators", "entries": [[1.2, 0.3], [2.5, 0.0]]}}, _BAD_ENTRY),
        ({"atom": {"model": "oscillators", "entries": [[1.2, 0.3], [2.5, math.nan]]}},
         _BAD_ENTRY),
        ({"atom": {"model": "static"}}, "static atom needs alpha0_au or alpha0_m3"),
        ({"wall": {"model": "plasma"}}, "plasma wall needs omega_p_eV or omega_p_rad_s"),
        ({"wall": {"model": "static"}}, "static wall needs eps0"),
        ({"wall": {"model": "ninham_parsegian"}}, "ninham_parsegian wall needs 'terms'"),
        ({"wall": {"model": "tabulated", "file": "metal.nk"}},
         "tabulated wall needs 'file' and 'kind'"),
        ({"atom": {"model": "tabulated_alpha"}}, "tabulated_alpha atom needs 'file'"),
        ({"atom": {"model": "oscillators"}}, "oscillators atom needs 'file' or 'entries'"),
        # a negative eV or au value reaches the model that holds it, which names its rule
        ({"wall": {"model": "plasma", "omega_p_eV": -9.0}},
         "plasma frequency must be finite and positive"),
        ({"wall": {"model": "ninham_parsegian", "terms": [[1.93, 0.13], [0.91, -12.5]]}},
         "terms[1]: Ninham-Parsegian terms must have finite C_j > 0, omega_j > 0"),
        ({"wall": dict(_METAL, drude={"omega_p_eV": 9.0, "nu_eV": -0.035})},
         "Drude completion requires finite positive omega_p and nu"),
        ({"atom": {"model": "static", "alpha0_au": -315.63}},
         "alpha0 must be finite and non-negative"),
        ({"grid": {"xi_min_eV": -0.1, "xi_max_eV": 10.0}}, "grid needs 0 < xi_min"),
    ], ids=["inf_eps0", "nan_temperature", "inf_temperature", "nan_omega_p",
            "nan_np_term", "nan_drude_omega_p", "nan_high_exponent", "series_rel_tol_below_floor",
            "inf_max_terms", "inf_separation", "inf_grid_xi_max",
            "kk_rel_tol_above_range", "unknown_atom_tag", "unknown_wall_tag",
            "empty_oscillator_entries", "unknown_material_kind", "negative_entry_omega",
            "zero_entry_f", "nan_entry_f", "static_atom_without_alpha0",
            "plasma_wall_without_omega_p", "static_wall_without_eps0", "ninham_parsegian_without_terms",
            "tabulated_wall_without_kind", "tabulated_alpha_without_file",
            "oscillators_without_file_or_entries", "negative_omega_p", "negative_np_term_omega",
            "negative_drude_nu", "negative_alpha0", "negative_grid_xi_min"])
    def test_invalid_value_exits_3_naming_the_config(self, tmp_path, case, message):
        _metal_wall(tmp_path)  # writes the metal.nk that the _METAL cases read
        cfg = write_config(tmp_path, base_config(**case))
        result = run_cli("sweep", "--config", str(cfg))
        _assert_one_error_line(result, 3)
        assert result.stderr.startswith(f"error: {cfg}: ")
        assert message in result.stderr

    _DRUDE = {"omega_p_eV": 9.0, "nu_eV": 0.035}
    _REFERENCE = {"atom": {"model": "static", "alpha0_au": 315.63},
                  "wall": {"model": "plasma", "omega_p_eV": 9.0}}

    @pytest.mark.parametrize("case, block, key", [
        ({"mystery": 1}, "", "mystery"),
        ({"atom": {"model": "static", "alpha0_au": 315.63, "alpha0_ua": 1.0}}, "atom",
         "alpha0_ua"),
        ({"atom": {"model": "oscillators", "entries": [[1.18, 0.5935]], "entry": []}}, "atom",
         "entry"),
        ({"atom": {"model": "tabulated_alpha", "file": "alpha.dat", "xi_eV": 1.0}}, "atom",
         "xi_eV"),
        ({"wall": {"model": "ideal_metal", "eps0": 2.0}}, "wall", "eps0"),
        ({"wall": {"model": "plasma", "omega_p_eV": 9.0, "omega_p_ev": 7.0}}, "wall",
         "omega_p_ev"),
        ({"wall": {"model": "static", "eps0": 3.84, "eps_0": 2.0}}, "wall", "eps_0"),
        ({"wall": {"model": "ninham_parsegian", "terms": [[1.93, 0.13]], "term": []}}, "wall",
         "term"),
        ({"wall": dict(_METAL, drude=_DRUDE, high_exp=1.5)}, "wall", "high_exp"),
        ({"wall": dict(_METAL, drude=dict(_DRUDE, nu_ev=0.1))}, "wall.drude", "nu_ev"),
        ({"reference": dict(_REFERENCE, variant=[])}, "reference", "variant"),
        ({"reference": dict(_REFERENCE, atom={"model": "static", "alpha0_au": 1.0, "au": 1})},
         "reference.atom", "au"),
        ({"reference": _REFERENCE, "variants": [{"label": "v", "wall": {"model": "ideal_metal"},
                                                 "atoms": {}}]}, "variants[0]", "atoms"),
        ({"reference": _REFERENCE, "variants": [
            {"label": "v", "wall": {"model": "ideal_metal"}},
            {"label": "w", "wall": {"model": "static", "eps0": 3.84, "eps": 2.0}}]},
         "variants[1].wall", "eps"),
        ({"grid": {"xi_min_eV": 0.1, "xi_max_eV": 10.0, "point": 3}}, "grid", "point"),
        ({"output": {"fromat": "json"}}, "output", "fromat"),
        ({"separations_nm": {"list": [10.0], "lst": [20.0]}}, "separations_nm", "lst"),
        ({"tolerances": {"max_term": 10}}, "tolerances", "max_term"),
        ({"kk": {"rel_tol": 1e-8, "reltol": 1e-6}}, "kk", "reltol"),
    ], ids=["top_level", "static_atom", "oscillators_atom", "tabulated_alpha_atom",
            "ideal_metal_wall", "plasma_wall", "static_wall", "ninham_parsegian_wall",
            "tabulated_wall", "drude", "reference", "reference_atom", "variant", "variant_wall",
            "grid", "output", "separations_nm", "tolerances", "kk"])
    def test_misspelled_key_exits_3_naming_the_config_block_and_key(self, tmp_path, case,
                                                                   block, key):
        # without the misspelled key each config runs; with it, nothing is silently dropped
        _metal_wall(tmp_path)
        (tmp_path / "alpha.dat").write_text("0.0 315.63\n1.0 250.0\n2.0 60.0\n")
        doc = base_config(**case)
        if "reference" in case:
            del doc["atom"], doc["wall"]
        cfg = write_config(tmp_path, doc)
        result = run_cli("sweep", "--config", str(cfg))
        _assert_one_error_line(result, 3)
        where = f"{block}: " if block else ""
        assert result.stderr == f"error: {cfg}: {where}unknown keys ['{key}']\n"

    @pytest.mark.parametrize("rows, line", [("0.0 315.63\nnan 250.0\n2.0 60.0\n", 2),
                                            ("0.0 315.63\n1.0 250.0\ninf 60.0\n", 3)],
                             ids=["nan_row", "inf_last_row"])
    def test_non_finite_alpha_row_exits_3_naming_the_table(self, tmp_path, rows, line):
        (tmp_path / "alpha.dat").write_text(rows)
        cfg = write_config(tmp_path, base_config(
            atom={"model": "tabulated_alpha", "file": "alpha.dat"}))
        result = run_cli("sweep", "--config", str(cfg))
        _assert_one_error_line(result, 3)
        assert f"alpha.dat:{line}: " in result.stderr and str(cfg) not in result.stderr

    def test_data_file_row_error_names_the_data_file_and_line(self, tmp_path):
        rows = [f"{e}.0 1.0 0.1" for e in range(1, 10)]
        rows[4] = "5.0 1.0 -0.1"
        (tmp_path / "neg.nk").write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, base_config(
            wall={"model": "tabulated", "file": "neg.nk", "kind": "dielectric"}))
        result = run_cli("sweep", "--config", str(cfg))
        _assert_one_error_line(result, 3)
        assert "neg.nk:5: " in result.stderr and str(cfg) not in result.stderr

    def test_nan_row_of_optical_table_exits_3_naming_its_line(self, tmp_path):
        rows = [f"{e}.0 1.0 0.1" for e in range(1, 10)]
        rows[4] = "nan 1.0 0.1"
        (tmp_path / "t_nan.nk").write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, base_config(
            wall={"model": "tabulated", "file": "t_nan.nk", "kind": "dielectric"}))
        result = run_cli("sweep", "--config", str(cfg))
        _assert_one_error_line(result, 3)
        assert "t_nan.nk:5: " in result.stderr and str(cfg) not in result.stderr

    def test_dielectric_table_rising_toward_zero_frequency_exits_3_naming_it(self, tmp_path):
        # eps'' = 2 n k grows toward zero frequency, so the transform cannot converge there
        energies, k = np.geomspace(0.1, 10.0, 10), np.geomspace(1.0, 0.1, 10)
        (tmp_path / "rising.nk").write_text("".join(
            f"{float(e)!r} 1.5 {float(kk)!r}\n" for e, kk in zip(energies, k)))
        cfg = write_config(tmp_path, base_config(
            wall={"model": "tabulated", "file": "rising.nk", "kind": "dielectric"}))
        result = run_cli("sweep", "--config", str(cfg))
        _assert_one_error_line(result, 3)
        assert result.stderr.startswith(f"error: {tmp_path / 'rising.nk'}: ")
        assert "zero-frequency" in result.stderr and str(cfg) not in result.stderr

    @pytest.mark.parametrize("labels", [["x", "x"], ["a_nm"], ["abs_free_energy_ref_J"],
                                        ["p,q"], ["p\nq"], ["p\rq"], [7]],
                             ids=["repeated", "a_nm", "reference_column", "comma",
                                  "newline", "carriage_return", "not_a_string"])
    def test_colliding_variant_label_exits_3(self, tmp_path, labels):
        cfg = write_config(tmp_path, {
            "temperature_K": 300.0,
            "separations_nm": {"list": [10.0]},
            "reference": {"atom": {"model": "static", "alpha0_au": 315.63},
                          "wall": {"model": "plasma", "omega_p_eV": 9.0}},
            "variants": [{"label": "ok", "wall": {"model": "ideal_metal"}},
                         *({"label": label, "wall": {"model": "ideal_metal"}}
                           for label in labels)],
        })
        result = run_cli("table", "--config", str(cfg))
        _assert_one_error_line(result, 3)
        assert result.stderr.startswith(f"error: {cfg}: ") and "label" in result.stderr

    def test_drude_block_without_nu_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, base_config(wall=_metal_wall(tmp_path, omega_p_eV=9.0)))
        _assert_one_error_line(run_cli("sweep", "--config", str(cfg)), 3)

    def test_config_not_utf8_exits_3(self, tmp_path):
        cfg = tmp_path / "latin1.json"
        doc = base_config(output={"path": str(tmp_path / "r\u00e9sultat.csv")})
        cfg.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        _assert_one_error_line(run_cli("sweep", "--config", str(cfg)), 3)

    def test_data_file_not_utf8_exits_3(self, tmp_path):
        wall = _metal_wall(tmp_path, omega_p_eV=9.0, nu_eV=0.035)
        rows = (tmp_path / "metal.nk").read_text()
        (tmp_path / "metal.nk").write_bytes(("# \u00e9nergie n k\n" + rows).encode("latin-1"))
        cfg = write_config(tmp_path, base_config(wall=wall))
        result = run_cli("sweep", "--config", str(cfg))
        _assert_one_error_line(result, 3)
        assert "metal.nk" in result.stderr

    def test_referenced_directory_exits_3(self, tmp_path):
        (tmp_path / "alpha.dat").mkdir()
        cfg = write_config(tmp_path, base_config(
            atom={"model": "tabulated_alpha", "file": "alpha.dat"}))
        _assert_one_error_line(run_cli("sweep", "--config", str(cfg)), 3)

    def test_unreadable_config_exits_2(self, tmp_path):
        result = run_cli("sweep", "--config", str(tmp_path))
        _assert_one_error_line(result, 2)
        assert str(tmp_path) in result.stderr

    @pytest.mark.parametrize("out", ["missing_dir/out.csv", "."])
    def test_unwritable_out_exits_2(self, tmp_path, out):
        cfg = write_config(tmp_path, base_config())
        result = run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / out))
        _assert_one_error_line(result, 2)

    def test_non_convergence_exits_4_with_diagnostics(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tolerances={"max_terms": 1}))
        result = run_cli("energy", "--config", str(cfg))
        _assert_one_error_line(result, 4)
        assert "diagnostics=" in result.stderr


@pytest.mark.parametrize("command,name", [("epsilon", "eps_iw"), ("alpha", "alpha_iw"),
                                          ("epsilon", "parse_run_config")])
def test_handlers_call_module_globals_at_call_time(tmp_path, monkeypatch, command, name):
    # a wrapper set on the cli module after import, as a tracer installs one, is called
    from atomwall import cli

    calls = []
    original = getattr(cli, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, name, recording)
    cfg = write_config(tmp_path, {"wall": {"model": "plasma", "omega_p_eV": 9.0},
                                  "atom": {"model": "static", "alpha0_au": 315.63},
                                  "grid": {"xi_min_eV": 0.9, "xi_max_eV": 9.0, "points": 7}})
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


_JSON_NUMBERS = st.one_of(st.integers(-10 ** 20, 10 ** 20),
                          st.floats(),   # -0.0, nan, +-inf, subnormal and huge exponents
                          st.floats().map(np.float64))


@settings(max_examples=200, deadline=None)
@given(columns=st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=5, unique=True),
       data=st.data())
@example(columns=["b", "a", "n_terms"], data=None)
@example(columns=["%s", "a%d", "%"], data=None)   # the row template is filled with %
def test_json_output_is_the_bytes_of_json_dumps(columns, data):
    from atomwall import cli

    if data is None:
        rows = [(-0.0, math.nan, 7), (math.inf, -math.inf, 0),
                (np.float64(1e-310), np.float64(-1.7e308), -12), (5e-324, 1e22, 10 ** 19)]
    else:
        rows = data.draw(st.lists(st.tuples(*[_JSON_NUMBERS] * len(columns)),
                                  min_size=1, max_size=5))
    stream = io.StringIO()
    cli._emit(SimpleNamespace(digest="0" * 64), stream, "json", tuple(columns), rows)
    expected = json.dumps({"config_sha256": "0" * 64,
                           "rows": [dict(zip(columns, row)) for row in rows]},
                          sort_keys=True, indent=2)
    assert stream.getvalue() == expected + "\n"
