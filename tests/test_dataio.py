import json

import numpy as np
import pytest

from atomwall import (
    ConfigError,
    DrudeLowFreq,
    GridSpec,
    NumericalTolerances,
    OscillatorSet,
    ParseError,
    Plasma,
    StaticAlpha,
    StaticPermittivity,
    TabulatedKK,
    ValidationError,
    ev_to_angular,
    parse_alpha_table,
    parse_optical_table,
    parse_oscillator_file,
    parse_run_config,
)
from atomwall.constants import AU_POLARIZABILITY, EV_TO_RAD_PER_S
from atomwall.dataio import read_numeric_rows

from conftest import NU, WP, drude_nk


def write_drude_nk_file(path, n_rows=40):
    energies = np.geomspace(1e-2, 1e3, n_rows)
    omega = ev_to_angular(energies)
    n, k = drude_nk(omega)
    lines = ["# energy_eV n k"]
    lines += [f"{e:.9e} {nn:.9e} {kk:.9e}" for e, nn, kk in zip(energies, n, k)]
    path.write_text("\n".join(lines) + "\n")
    return energies


class TestRowReader:
    def test_two_row_format_conversion(self, tmp_path):
        # format example: eV energies with n, k columns
        f = tmp_path / "two.nk"
        f.write_text("# comment\n1.0 0.2 5.0\n2.0, 0.5, 3.0\n")
        lines, values = read_numeric_rows(f, 3)
        assert lines.tolist() == [2, 3]
        assert values.tolist() == [[1.0, 0.2, 5.0], [2.0, 0.5, 3.0]]
        assert ev_to_angular(values[0, 0]) == pytest.approx(1.5192674e15, rel=1e-6)

    def test_malformed_row_names_line(self, tmp_path):
        f = tmp_path / "bad.nk"
        f.write_text("1.0 0.2 5.0\n2.0 oops 3.0\n")
        with pytest.raises(ParseError) as err:
            read_numeric_rows(f, 3)
        assert err.value.line == 2

    def test_wrong_column_count(self, tmp_path):
        f = tmp_path / "bad.nk"
        f.write_text("1.0 0.2\n")
        with pytest.raises(ParseError) as err:
            read_numeric_rows(f, 3)
        assert err.value.line == 1


class TestParseOpticalTable:
    def test_loads_and_converts(self, tmp_path):
        f = tmp_path / "au.nk"
        energies = write_drude_nk_file(f)
        table = parse_optical_table(f, drude=DrudeLowFreq(WP, NU))
        assert table.omega.size == energies.size
        assert table.omega[0] == pytest.approx(ev_to_angular(energies[0]), rel=1e-12)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.nk"
        f.write_text("# nothing here\n")
        with pytest.raises(ValidationError):
            parse_optical_table(f)

    def test_too_few_rows(self, tmp_path):
        f = tmp_path / "short.nk"
        f.write_text("\n".join(f"{e} 1.0 0.1" for e in (1, 2, 3, 4)) + "\n")
        with pytest.raises(ValidationError):
            parse_optical_table(f)


class TestParseOscillatorFile:
    def test_single_row(self, tmp_path):
        f = tmp_path / "osc.dat"
        f.write_text("# omega_eV f0n\n1.18 0.30\n")
        model = parse_oscillator_file(f)
        assert model.n_oscillators == 1
        assert model.strengths == (0.30,)
        assert model.frequencies[0] == pytest.approx(ev_to_angular(1.18), rel=1e-12)

    def test_duplicate_frequencies_kept(self, tmp_path):
        f = tmp_path / "osc.dat"
        f.write_text("1.18 0.30\n1.18 0.20\n")
        model = parse_oscillator_file(f)
        assert model.n_oscillators == 2

    def test_comment_only_file(self, tmp_path):
        f = tmp_path / "osc.dat"
        f.write_text("# only a comment\n")
        with pytest.raises(ValidationError):
            parse_oscillator_file(f)


class TestParseAlphaTable:
    def test_loads_with_zero_row(self, tmp_path):
        f = tmp_path / "alpha.dat"
        f.write_text("0.0 315.6\n0.5 250.0\n1.0 150.0\n2.0 60.0\n")
        model = parse_alpha_table(f)
        assert model.xi[0] == 0.0
        assert model.alpha[0] == pytest.approx(315.6 * 1.4818471e-31, rel=1e-4)

    def test_missing_zero_row(self, tmp_path):
        f = tmp_path / "alpha.dat"
        f.write_text("0.5 250.0\n1.0 150.0\n")
        with pytest.raises(ValidationError):
            parse_alpha_table(f)


_GOOD_ROWS = {
    parse_optical_table: [f"{e}.0 1.5 0.1" for e in range(1, 10)],
    parse_oscillator_file: ["1.18 0.30", "2.5 0.7", "4.0 0.2"],
    parse_alpha_table: ["0.0 315.6", "0.5 250.0", "1.0 150.0", "2.0 60.0"],
}


@pytest.mark.parametrize("parse, index, row", [
    (parse_optical_table, 2, "-3.0 1.5 0.1"),
    (parse_optical_table, 2, "nan 1.5 0.1"),
    (parse_optical_table, 2, "inf 1.5 0.1"),
    (parse_optical_table, 2, "2.0 1.5 0.1"),     # repeats the energy above
    (parse_optical_table, 2, "3.0 -1.5 0.1"),
    (parse_optical_table, 2, "3.0 nan 0.1"),
    (parse_optical_table, 2, "3.0 1.5 -0.1"),
    (parse_optical_table, 2, "3.0 1.5 inf"),
    (parse_oscillator_file, 1, "0.0 0.7"),
    (parse_oscillator_file, 1, "-2.5 0.7"),
    (parse_oscillator_file, 1, "2.5 0.0"),
    (parse_oscillator_file, 1, "2.5 -0.7"),
    (parse_oscillator_file, 1, "nan 0.7"),
    (parse_oscillator_file, 1, "inf 0.7"),
    (parse_oscillator_file, 1, "2.5 nan"),
    (parse_oscillator_file, 1, "2.5 inf"),
    (parse_alpha_table, 0, "0.1 315.6"),         # no xi = 0 first row
    (parse_alpha_table, 1, "nan 250.0"),
    (parse_alpha_table, 1, "inf 250.0"),
    (parse_alpha_table, 2, "0.5 150.0"),         # repeats the xi above
    (parse_alpha_table, 1, "0.5 0.0"),
    (parse_alpha_table, 1, "0.5 -250.0"),
    (parse_alpha_table, 2, "1.0 300.0"),         # alpha rises
], ids=["optical_negative_energy", "optical_nan_energy", "optical_inf_energy",
        "optical_repeated_energy", "optical_negative_n", "optical_nan_n", "optical_negative_k",
        "optical_inf_k", "oscillator_zero_omega", "oscillator_negative_omega",
        "oscillator_zero_f", "oscillator_negative_f", "oscillator_nan_omega",
        "oscillator_inf_omega", "oscillator_nan_f", "oscillator_inf_f",
        "alpha_no_zero_row", "alpha_nan_xi", "alpha_inf_xi", "alpha_repeated_xi",
        "alpha_zero_alpha", "alpha_negative_alpha", "alpha_rising"])
def test_bad_row_names_its_file_and_line(tmp_path, parse, index, row):
    rows = list(_GOOD_ROWS[parse])
    rows[index] = row
    path = tmp_path / "data.txt"
    path.write_text("# header\n" + "\n".join(rows) + "\n")   # row i sits on line i + 2
    with pytest.raises(ValidationError) as err:
        parse(path)
    assert (err.value.path, err.value.line) == (path, index + 2)
    assert str(err.value).startswith(f"{path}:{index + 2}: ")


def minimal_config(tmp_path, **overrides):
    doc = {
        "temperature_K": 300.0,
        "separations_nm": {"list": [10.0]},
        "atom": {"model": "static", "alpha0_au": 315.63},
        "wall": {"model": "plasma", "omega_p_eV": 9.0},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc, indent=1))
    return path


class TestParseRunConfig:
    def test_minimal(self, tmp_path):
        cfg = parse_run_config(minimal_config(tmp_path))
        assert isinstance(cfg.atom, StaticAlpha)
        assert isinstance(cfg.wall, Plasma)
        assert cfg.temperature == 300.0
        assert cfg.separations[0] == pytest.approx(10e-9, rel=1e-12)
        assert len(cfg.digest) == 64

    def test_unknown_model_tag(self, tmp_path):
        path = minimal_config(tmp_path, wall={"model": "superconductor"})
        with pytest.raises(ConfigError):
            parse_run_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = minimal_config(tmp_path, mystery=1)
        with pytest.raises(ConfigError):
            parse_run_config(path)

    def test_kk_memoize_threshold_is_unknown(self, tmp_path):
        path = minimal_config(tmp_path, kk={"rel_tol": 1e-6, "memoize_threshold": 64})
        with pytest.raises(ConfigError, match="memoize_threshold"):
            parse_run_config(path)

    def test_kk_grid_points_per_decade_is_accepted_without_effect(self, tmp_path):
        with_key = parse_run_config(minimal_config(
            tmp_path, kk={"rel_tol": 1e-8, "grid_points_per_decade": 32}))
        assert with_key.kk_settings == parse_run_config(
            minimal_config(tmp_path, kk={"rel_tol": 1e-8})).kk_settings

    def test_consecutive_small_is_unknown(self, tmp_path):
        tolerances = {"series_rel_tol": 1e-10, "quad_rel_tol": 1e-8, "max_terms": 5000}
        with pytest.raises(ConfigError, match="consecutive_small"):
            parse_run_config(minimal_config(
                tmp_path, tolerances=dict(tolerances, consecutive_small=5)))
        with pytest.raises(ConfigError, match="consecutive_large"):
            parse_run_config(minimal_config(tmp_path, tolerances={"consecutive_large": 3}))

    @pytest.mark.parametrize("field, spec, twin", [
        ("atom", {"model": "static", "alpha0_m3": 200.0 * AU_POLARIZABILITY},
         {"model": "static", "alpha0_au": 200.0}),
        ("wall", {"model": "plasma", "omega_p_rad_s": 7.5 * EV_TO_RAD_PER_S},
         {"model": "plasma", "omega_p_eV": 7.5}),
    ], ids=["alpha0_m3", "omega_p_rad_s"])
    def test_si_key_builds_the_model_of_its_twin(self, tmp_path, field, spec, twin):
        model = getattr(parse_run_config(minimal_config(tmp_path, **{field: spec})), field)
        assert model == getattr(parse_run_config(minimal_config(tmp_path, **{field: twin})), field)

    def test_metal_table_without_drude(self, tmp_path):
        f = tmp_path / "au.nk"
        write_drude_nk_file(f)
        path = minimal_config(
            tmp_path, wall={"model": "tabulated", "file": "au.nk", "kind": "metal"}
        )
        with pytest.raises(ConfigError):
            parse_run_config(path)

    def test_metal_table_with_drude(self, tmp_path):
        f = tmp_path / "au.nk"
        write_drude_nk_file(f)
        path = minimal_config(
            tmp_path,
            wall={"model": "tabulated", "file": "au.nk", "kind": "metal",
                  "drude": {"omega_p_eV": 9.0, "nu_eV": 0.0329}},
        )
        cfg = parse_run_config(path)
        assert isinstance(cfg.wall, TabulatedKK)

    def test_missing_referenced_file(self, tmp_path):
        path = minimal_config(
            tmp_path, atom={"model": "oscillators", "file": "nowhere.dat"}
        )
        with pytest.raises(ConfigError):
            parse_run_config(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n "temperature_K": 300.0,\n}\n')
        with pytest.raises(ParseError) as err:
            parse_run_config(path)
        assert err.value.line is not None

    def test_list_and_log_range_equivalence(self, tmp_path):
        points = np.geomspace(3.0, 300.0, 7)
        p1 = minimal_config(tmp_path, separations_nm={"log_range": [3.0, 300.0, 7]})
        cfg1 = parse_run_config(p1)
        p2 = tmp_path / "config2.json"
        doc = json.loads(p1.read_text())
        doc["separations_nm"] = {"list": [float(x) for x in points]}
        p2.write_text(json.dumps(doc))
        cfg2 = parse_run_config(p2)
        assert np.array_equal(cfg1.separations, cfg2.separations)

    def test_unsorted_separations_rejected(self, tmp_path):
        path = minimal_config(tmp_path, separations_nm={"list": [10.0, 3.0]})
        with pytest.raises(ConfigError):
            parse_run_config(path)

    def test_variants_require_reference(self, tmp_path):
        path = minimal_config(tmp_path, variants=[{"label": "x", "wall": {"model": "ideal_metal"}}])
        with pytest.raises(ConfigError):
            parse_run_config(path)

    def test_reference_and_variants(self, tmp_path):
        doc = {
            "temperature_K": 300.0,
            "separations_nm": {"list": [10.0, 100.0]},
            "reference": {"atom": {"model": "static", "alpha0_au": 315.63},
                          "wall": {"model": "plasma", "omega_p_eV": 9.0}},
            "variants": [
                {"label": "ideal", "wall": {"model": "ideal_metal"}},
                {"label": "static_eps", "wall": {"model": "static", "eps0": 3.84}},
            ],
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        cfg = parse_run_config(path)
        assert [v.label for v in cfg.variants] == ["ideal", "static_eps"]
        assert isinstance(cfg.variants[1].wall, StaticPermittivity)
        # variants inherit the reference atom
        assert cfg.variants[0].atom is cfg.atom

    def test_round_trip(self, tmp_path):
        f = tmp_path / "osc.dat"
        f.write_text("1.18 0.30\n2.5 0.7\n")
        path = minimal_config(
            tmp_path,
            atom={"model": "oscillators", "file": "osc.dat"},
            tolerances={"series_rel_tol": 1e-8},
            grid={"xi_min_eV": 0.01, "xi_max_eV": 10.0, "points": 30},
            output={"format": "json"},
        )
        cfg1 = parse_run_config(path)
        # osc.dat is read from the config's directory, not the working one
        assert isinstance(cfg1.atom, OscillatorSet)
        assert cfg1.atom == parse_oscillator_file(f)
        assert cfg1.wall == Plasma(ev_to_angular(9.0))
        assert cfg1.separations.tolist() == [10.0 * 1e-9]
        assert cfg1.tolerances == NumericalTolerances(series_rel_tol=1e-8)
        assert cfg1.grid == GridSpec(ev_to_angular(0.01), ev_to_angular(10.0), 30)
