import configparser
import dataclasses
import json
import math
import os
import pathlib
import re
import shutil
import stat
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nlispec import cli, data_path
from nlispec.cli import _COMMANDS, main
from nlispec.config import (_KEYS, build_axes, build_gas, build_geometry,
                            build_vacuum, load_run_config)
from nlispec.dispersion import gas_index
from nlispec.errors import MapFormatError
from nlispec.interferometer import MapAxes, simulate_map
from nlispec.lineshape import load_line_csv, load_par_file
from nlispec.mapio import IntensityMap, load_map, save_map
from nlispec.retrieval import (RetrievalResult, _model_pattern,
                               load_result_csv, retrieve, save_result_csv)

CFG = """\
[crystal]
coefficients = mgo_linbo3_zelmon.nlc
cut_angle_deg = 47.5

[pump]
wavelength_nm = 532.0

[geometry]
crystal_length_mm = 0.5
gap_length_mm = 25.0

[signal_axis]
min_nm = 604.0
max_nm = 612.0
samples = 16

[angle_axis]
min_mrad = -6.5
max_mrad = 6.5
samples = 257

[gas]
lines = co2_synthetic_lines.csv
molar_mass_g_mol = 44.0095
pressure_torr = 10.5
temperature_k = 300.0
wing_cutoff_cm = 60.0
visible_n0 = 1.000449
grid_step_cm = 0.5
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "run.cfg"
    cfg.write_text(CFG)
    assert main(["simulate", str(cfg), "-o", str(d / "sample.nlm")]) == 0
    assert main(["simulate", str(cfg), "-o", str(d / "reference.nlm"),
                 "--vacuum"]) == 0
    assert main(["retrieve", str(d / "sample.nlm"), str(d / "reference.nlm"),
                 str(cfg), "-o", str(d / "result.csv")]) == 0
    return d


def test_simulate_writes_valid_maps(workdir):
    sample = load_map(workdir / "sample.nlm")
    reference = load_map(workdir / "reference.nlm")
    assert sample.intensity.shape == (16, 257)
    assert sample.meta["kind"] == "sample"
    assert reference.meta["kind"] == "reference"
    assert reference.meta["pressure_torr"] == 0.0
    # gas must actually change the pattern
    assert np.abs(sample.intensity - reference.intensity).max() > 1e-3


def test_retrieve_round_trip(workdir, tmp_path, capsys):
    out = tmp_path / "result.csv"
    code = main(["retrieve", str(workdir / "sample.nlm"),
                 str(workdir / "reference.nlm"),
                 str(workdir / "run.cfg"), "-o", str(out)])
    assert code == 0
    assert "retrieved 16 rows" in capsys.readouterr().out
    res = load_result_csv(out)
    assert res.rows.size == 16
    assert np.all(np.isfinite(res.alpha_cm))
    assert np.all(np.isfinite(res.index_offset))
    # band rows must show real absorption, far rows almost none
    assert res.alpha_cm.max() > 0.2
    assert abs(res.alpha_cm[0]) < 1e-4
    assert res.meta["engine"] == "model"
    assert res.meta["sample_visible_index"] > 1.0


def test_retrieve_result_csv_is_lossless(workdir, tmp_path):
    res = load_result_csv(workdir / "result.csv")
    from nlispec.retrieval import save_result_csv
    copy = tmp_path / "copy.csv"
    save_result_csv(copy, res)
    again = load_result_csv(copy)
    np.testing.assert_array_equal(res.alpha_cm, again.alpha_cm)
    np.testing.assert_array_equal(res.index_offset, again.index_offset)
    np.testing.assert_array_equal(res.rows, again.rows)
    assert res.meta == again.meta


def test_retrieve_calls_no_linalg_and_no_sort(workdir, monkeypatch):
    # the model engine solves its 3 x 3 fits in closed form and picks
    # its rows with a mask: with LAPACK's solvers and np.unique made to
    # raise, rows in order and unsorted, duplicated rows fit the same
    cfg = load_run_config(workdir / "run.cfg")
    geom = build_geometry(cfg)
    n_vis = gas_index(cfg.visible, cfg.pressure_torr, cfg.temperature_k)
    paths = str(workdir / "sample.nlm"), str(workdir / "reference.nlm")
    cases = [(rows, polish) for rows in (None, [11, 3, 15, 3, 0, 8, 11, 9])
             for polish in (True, False)]

    def run(rows, polish):
        return retrieve(*paths, geom, rows=rows, polish=polish,
                        sample_visible_index=n_vis)

    expected = [run(*case) for case in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("retrieve called a LAPACK solver or a sort")

    for name in ("solve", "pinv", "inv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(np, "unique", forbidden)
    for case, want in zip(cases, expected):
        got = run(*case)
        for field in dataclasses.fields(RetrievalResult):
            if field.name != "meta":
                np.testing.assert_array_equal(
                    getattr(got, field.name), getattr(want, field.name),
                    err_msg=f"{case}: {field.name}")
    assert np.isfinite(expected[0].alpha_cm).all()


def test_result_table_keeps_nan_rows(workdir, tmp_path):
    # rows 0 and 5 come back NaN in every fitted column, as a dim row does
    res = load_result_csv(workdir / "result.csv")
    dim = np.isin(res.rows, [0, 5])
    holes = {name: np.where(dim, np.nan, getattr(res, name))
             for name in ("visibility", "alpha_cm", "alpha_sigma_cm",
                          "phase_shift_rad", "index_offset",
                          "index_offset_sigma")}
    save_result_csv(tmp_path / "holed.csv", dataclasses.replace(res, **holes))
    back = load_result_csv(tmp_path / "holed.csv")
    for name, values in holes.items():
        np.testing.assert_array_equal(getattr(back, name), values)
    np.testing.assert_array_equal(back.rows, res.rows)


def test_result_table_rejects_wrong_magic(workdir, tmp_path):
    lines = (workdir / "result.csv").read_text().splitlines()
    for magic in ("# nlispec map 1", "# nlispec retrieval 9"):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([magic] + lines[1:]) + "\n")
        with pytest.raises(MapFormatError, match="not a retrieval result"):
            load_result_csv(bad)


def test_config_data_paths_resolve_against_config_dir(tmp_path, monkeypatch,
                                                      capsys):
    cfg_dir = tmp_path / "relcfg"
    cfg_dir.mkdir()
    shutil.copy(data_path("mgo_linbo3_zelmon.nlc"), cfg_dir / "my_crystal.nlc")
    (cfg_dir / "run.cfg").write_text(
        CFG.replace("mgo_linbo3_zelmon.nlc", "my_crystal.nlc"))
    monkeypatch.chdir(tmp_path)
    assert main(["pump-angle", "relcfg/run.cfg"]) == 0
    assert "deg" in capsys.readouterr().out


def test_retrieve_every_n(workdir, tmp_path):
    out = tmp_path / "sub.csv"
    assert main(["retrieve", str(workdir / "sample.nlm"),
                 str(workdir / "reference.nlm"), str(workdir / "run.cfg"),
                 "-o", str(out), "--every", "4"]) == 0
    res = load_result_csv(out)
    assert list(res.rows) == [0, 4, 8, 12]


def test_retrieve_extrema_engine(workdir, tmp_path):
    args = [str(workdir / "sample.nlm"), str(workdir / "reference.nlm"),
            str(workdir / "run.cfg")]
    ext = tmp_path / "ext.csv"
    mod = tmp_path / "mod.csv"
    assert main(["retrieve", *args, "-o", str(ext),
                 "--engine", "extrema"]) == 0
    assert main(["retrieve", *args, "-o", str(mod)]) == 0
    res = load_result_csv(ext)
    assert np.all(np.isnan(res.phase_shift_rad))
    model = load_result_csv(mod)
    np.testing.assert_allclose(res.alpha_cm, model.alpha_cm, atol=5e-3)


def test_noise_is_seeded(workdir, tmp_path):
    cfg = str(workdir / "run.cfg")
    a = tmp_path / "a.nlm"
    b = tmp_path / "b.nlm"
    c = tmp_path / "c.nlm"
    for path, seed in ((a, "7"), (b, "7"), (c, "8")):
        assert main(["simulate", cfg, "-o", str(path),
                     "--noise", "0.01", "--seed", seed]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert load_map(a).intensity.std() != load_map(c).intensity.std()
    assert load_map(a).meta["noise_seed"] == 7


def test_pump_angle_and_info(workdir, capsys):
    assert main(["pump-angle", str(workdir / "run.cfg")]) == 0
    out = capsys.readouterr().out
    assert "deg" in out
    angle = float(out.split(":")[1].split()[0])
    assert 40.0 < angle < 55.0

    assert main(["info", str(workdir / "sample.nlm")]) == 0
    out = capsys.readouterr().out
    assert "16 wavelengths x 257 angles" in out


def test_exit_code_config_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CFG + "\n[oops]\nx = 1\n")
    assert main(["simulate", str(bad), "-o", str(tmp_path / "x.nlm")]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_out_of_range_gas_key(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CFG.replace("pressure_torr = 10.5", "pressure_torr = -3"))
    assert main(["simulate", str(bad), "-o", str(tmp_path / "x.nlm")]) == 2
    assert "[gas].pressure_torr" in capsys.readouterr().err


def test_exit_code_aperture_overflow(tmp_path):
    # the idler walks ~1.2 mm across the 25 mm gap at 6.5 mrad
    bad = tmp_path / "tight.cfg"
    bad.write_text(CFG.replace("gap_length_mm = 25.0",
                               "gap_length_mm = 25.0\naperture_mm = 0.5"))
    out = subprocess.run([sys.executable, "-m", "nlispec.cli", "simulate",
                          str(bad), "-o", str(tmp_path / "x.nlm")],
                         capture_output=True, text=True)
    assert out.returncode == 2
    assert "aperture" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("records, selection", [
    (1, "molecule_id = 7"),
    (1, "isotopologue_id = 2"),
    (0, ""),
], ids=["other_molecule", "other_isotopologue", "empty_file"])
def test_exit_code_empty_par_selection(tmp_path, records, selection):
    # one CO2 record: molecule 2, isotopologue 1
    record = " 21 2349.917138 3.553E-19 1.234E+00.0758.0942 1234.56780.75"
    (tmp_path / "lines.par").write_text(records * (record.ljust(160) + "\n"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG.replace("co2_synthetic_lines.csv", "lines.par")
                   + selection + "\n")
    out = subprocess.run([sys.executable, "-m", "nlispec.cli", "simulate",
                          str(cfg), "-o", str(tmp_path / "x.nlm")],
                         capture_output=True, text=True)
    assert out.returncode == 1, out.stderr
    assert "no lines in" in out.stderr and "lines.par" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "x.nlm").exists()


def test_exit_code_missing_input(workdir, tmp_path, capsys):
    code = main(["retrieve", str(tmp_path / "absent.nlm"),
                 str(workdir / "reference.nlm"), str(workdir / "run.cfg"),
                 "-o", str(tmp_path / "r.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "No such file or directory" in err
    assert str(tmp_path / "absent.nlm") in err


@pytest.mark.parametrize("suffix, reason", [
    (".nlm", "No such file or directory"),
    (".csv", "No such file or directory"),
    (".pgm", "No such file or directory"),
    (".txt", "unsupported map suffix"),
])
def test_info_on_a_missing_map_names_the_reason(tmp_path, capsys, suffix,
                                                reason):
    path = tmp_path / f"absent{suffix}"
    assert main(["info", str(path)]) == 1
    err = capsys.readouterr().err
    assert reason in err
    assert str(path) in err


@pytest.mark.parametrize("target", ["missing directory", "directory"])
@pytest.mark.parametrize("command", ["simulate", "retrieve"])
def test_failed_write_names_the_output_file(workdir, tmp_path, capsys,
                                            command, target):
    out = tmp_path / ("x.nlm" if command == "simulate" else "x.csv")
    if target == "directory":
        out.mkdir()
    else:
        out = tmp_path / "missing" / out.name
    inputs = {"simulate": ["run.cfg"],
              "retrieve": ["sample.nlm", "reference.nlm", "run.cfg"]}
    code = main([command, *(str(workdir / f) for f in inputs[command]),
                 "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"'{out}'" in err and ".part" not in err
    # nothing is left behind beside the output
    assert [p.name for p in tmp_path.iterdir()] == (
        [out.name] if target == "directory" else [])


def test_exit_code_corrupt_map(workdir, tmp_path):
    junk = tmp_path / "junk.nlm"
    junk.write_bytes(b"not a map at all")
    code = main(["retrieve", str(junk), str(workdir / "reference.nlm"),
                 str(workdir / "run.cfg"), "-o", str(tmp_path / "r.csv")])
    assert code == 1


def test_exit_code_incompatible_axes(workdir, tmp_path, capsys):
    cfg2 = tmp_path / "other.cfg"
    cfg2.write_text(CFG.replace("samples = 257", "samples = 101"))
    other = tmp_path / "other.nlm"
    assert main(["simulate", str(cfg2), "-o", str(other), "--vacuum"]) == 0
    code = main(["retrieve", str(workdir / "sample.nlm"), str(other),
                 str(workdir / "run.cfg"), "-o", str(tmp_path / "r.csv")])
    assert code == 3
    assert "inconsistent" in capsys.readouterr().err


@pytest.mark.parametrize("row", [6, 14], ids=["between", "after_last"])
@pytest.mark.parametrize("suffix", [".csv", ".nlm"])
def test_retrieve_checks_the_rows_it_skips(workdir, tmp_path, capsys, suffix,
                                           row):
    # --every 4 fits rows 0, 4, 8 and 12 of 16; `row` is never fitted
    sample = load_map(workdir / "sample.nlm")
    path = tmp_path / f"s{suffix}"
    save_map(path, sample)
    if suffix == ".csv":
        lines = path.read_text().splitlines()
        lines[3 + row] = lines[3 + row].replace(",", ",x", 1)
        path.write_text("\n".join(lines) + "\n")
        expected = f"s.csv:{4 + row}: bad cells"
    else:
        blob = bytearray(path.read_bytes())
        at = len(blob) - sample.intensity.nbytes + row * 257 * 8
        blob[at:at + 8] = np.array([math.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        expected = f"row {row} is not"
    code = main(["retrieve", str(path), str(workdir / "reference.nlm"),
                 str(workdir / "run.cfg"), "-o", str(tmp_path / "r.csv"),
                 "--every", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert expected in err
    assert not (tmp_path / "r.csv").exists()


def test_retrieve_compares_axes_before_reading_rows(workdir, tmp_path,
                                                    capsys):
    cfg2 = tmp_path / "other.cfg"
    cfg2.write_text(CFG.replace("samples = 257", "samples = 101"))
    other = tmp_path / "other.nlm"
    assert main(["simulate", str(cfg2), "-o", str(other), "--vacuum"]) == 0
    sample = tmp_path / "s.csv"
    save_map(sample, load_map(workdir / "sample.nlm"))
    text = sample.read_text()
    sample.write_text(text[:text.rindex(",")] + ",broken\n")
    code = main(["retrieve", str(sample), str(other), str(workdir / "run.cfg"),
                 "-o", str(tmp_path / "r.csv")])
    assert code == 3
    assert "inconsistent" in capsys.readouterr().err


def _readme_synopsis() -> dict:
    """Long options of each subcommand in README's "Command line" block."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    options, command = {}, None
    for line in block.splitlines():
        if line.startswith("nlispec "):
            command = line.split()[1]
            options[command] = set()
        if command:
            options[command].update(re.findall(r"--[a-z][a-z-]*", line))
    return options


def test_readme_synopsis_matches_the_cli(capsys):
    synopsis = _readme_synopsis()
    assert set(synopsis) == set(_COMMANDS)
    for command, documented in synopsis.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        shown = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert shown - {"--help", "--output"} == documented, command


def test_console_script_version():
    out = subprocess.run([sys.executable, "-m", "nlispec.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "0.1.0"


def test_retrieve_has_no_linear_only_option(tmp_path):
    # every table comes from the converged fit; argparse rejects the
    # retired --no-polish before any input is read
    out = subprocess.run([sys.executable, "-m", "nlispec.cli", "retrieve",
                          str(tmp_path / "s.nlm"), str(tmp_path / "r.nlm"),
                          DEMO_CFG, "-o", str(tmp_path / "t.csv"),
                          "--no-polish"], capture_output=True, text=True)
    assert out.returncode == 2
    assert "unrecognized arguments: --no-polish" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "t.csv").exists()


def test_csv_and_pgm_outputs(workdir, tmp_path):
    cfg = str(workdir / "run.cfg")
    for suffix in (".csv", ".pgm"):
        out = tmp_path / f"map{suffix}"
        assert main(["simulate", cfg, "-o", str(out)]) == 0
        m = load_map(out)
        assert m.intensity.shape == (16, 257)


def test_exit_code_unreachable_pump_angle(tmp_path):
    # an isotropic crystal: [extraordinary] copies [ordinary]
    with open(data_path("mgo_linbo3_zelmon.nlc"), encoding="utf-8") as fh:
        text = fh.read()
    head, ordinary = text.split("[extraordinary]")[0].split("[ordinary]")
    nlc = tmp_path / "isotropic.nlc"
    nlc.write_text(head + "[ordinary]" + ordinary
                   + "[extraordinary]" + ordinary)
    bad = tmp_path / "isotropic.cfg"
    bad.write_text(CFG.replace("mgo_linbo3_zelmon.nlc", str(nlc)))
    absent = str(tmp_path / "absent.nlm")
    for cmd in (["simulate", str(bad), "-o", str(tmp_path / "x.nlm")],
                ["retrieve", absent, absent, str(bad), "-o",
                 str(tmp_path / "r.csv")],
                ["pump-angle", str(bad)]):
        out = subprocess.run([sys.executable, "-m", "nlispec.cli", *cmd],
                             capture_output=True, text=True)
        assert out.returncode == 2
        assert "no pump angle" in out.stderr
        assert "Traceback" not in out.stderr


def _mutate(blob, rng):
    """One to three byte edits: overwrite, insert, delete or truncate."""
    data = bytearray(blob)
    for _ in range(rng.integers(1, 4)):
        at = int(rng.integers(len(data) + 1))
        op = rng.choice(4, p=[0.5, 0.2, 0.2, 0.1])
        if op == 0 and at < len(data):
            data[at] = rng.integers(256)
        elif op == 1:
            data[at:at] = bytes([rng.integers(256)])
        elif op == 2:
            del data[at:at + 1]
        elif op == 3:
            del data[at:]
    return bytes(data)


@pytest.mark.parametrize("target", ["m.nlm", "m.csv", "m.pgm", "m.pgm.json"])
def test_info_survives_map_byte_fuzz(tmp_path, capsys, target):
    rng = np.random.default_rng(2024)
    axes = MapAxes(np.linspace(600.0, 612.0, 4), np.linspace(-5e-3, 5e-3, 5))
    m = IntensityMap(axes, rng.uniform(0.1, 2.0, axes.shape),
                     {"kind": "sample", "noise_seed": 3})
    path = str(tmp_path / target.removesuffix(".json"))
    save_map(path, m)
    victim = tmp_path / target
    original = victim.read_bytes()
    for _ in range(400):
        victim.write_bytes(_mutate(original, rng))
        assert main(["info", path]) in (0, 1)
    capsys.readouterr()


def _par_record(line, einstein_a="0.000E+00"):
    """`line` as a 160-column fixed-width record; the demo's exaggerated
    widths take one decimal in their 5-column spans."""
    return (f"{line.mol_id:2d}{line.iso_id:1d}{line.nu0_cm:12.6f}"
            f"{line.strength:10.3E}{einstein_a:>10}{line.gamma_air:5.1f}"
            f"{line.gamma_self:5.1f}{line.elow_cm:10.4f}"
            f"{line.n_air:4.2f}").ljust(160)


def _text_inputs(small_demo_config, tmp_path, lines):
    """{input: path} of a small demo run whose config, crystal file and
    line list (`lines`, .csv or .par) are copies in `tmp_path`."""
    cp = configparser.ConfigParser()
    cp.read_dict(small_demo_config)
    cp["crystal"]["coefficients"] = "crystal.nlc"
    cp["gas"]["lines"] = lines
    paths = {"config": tmp_path / "run.cfg",
             "crystal": tmp_path / "crystal.nlc",
             "lines": tmp_path / lines}
    with open(paths["config"], "w", encoding="utf-8") as fh:
        cp.write(fh)
    shutil.copy(data_path("mgo_linbo3_zelmon.nlc"), paths["crystal"])
    if lines.endswith(".par"):
        paths["lines"].write_text("".join(
            _par_record(line) + "\n" for line in
            load_line_csv(data_path("co2_synthetic_lines.csv"))))
    else:
        shutil.copy(data_path("co2_synthetic_lines.csv"), paths["lines"])
    return paths


# (input, line list), each with the exit code of a file that is not UTF-8
_TEXT_INPUTS = [("config", "lines.csv", 2), ("crystal", "lines.csv", 2),
                ("lines", "lines.csv", 1), ("lines", "lines.par", 1)]
_TEXT_IDS = ["config", "crystal", "csv_lines", "par_lines"]


@pytest.mark.parametrize("target, lines, _", _TEXT_INPUTS, ids=_TEXT_IDS)
def test_simulate_survives_text_input_byte_fuzz(small_demo_config, tmp_path,
                                                capsys, target, lines, _):
    paths = _text_inputs(small_demo_config, tmp_path, lines)
    victim = paths[target]
    original = victim.read_bytes()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        victim.write_bytes(_mutate(original, rng))
        assert main(["simulate", str(paths["config"]), "-o",
                     str(tmp_path / "x.nlm")]) in (0, 1, 2)
    capsys.readouterr()


@pytest.mark.parametrize("target, lines, code", _TEXT_INPUTS, ids=_TEXT_IDS)
def test_text_input_that_is_not_utf8_names_the_file(small_demo_config,
                                                    tmp_path, capsys, target,
                                                    lines, code):
    paths = _text_inputs(small_demo_config, tmp_path, lines)
    with open(paths[target], "ab") as fh:
        fh.write(b"\xff")
    assert main(["simulate", str(paths["config"]), "-o",
                 str(tmp_path / "x.nlm")]) == code
    assert f"{paths[target]}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "x.nlm").exists()


def _spoil_record_2(lines: pathlib.Path) -> None:
    """Make the second record of a .csv or .par line list unreadable."""
    rows = lines.read_text().splitlines(keepends=True)
    if lines.suffix == ".csv":   # record 1 is the header row
        cells = rows[2].split(",")
        cells[1] = "-1e-19"
        rows[2] = ",".join(cells)
    else:   # the strength field
        rows[1] = rows[1][:15] + "x" * 10 + rows[1][25:]
    lines.write_text("".join(rows))


@pytest.mark.parametrize("lines, where", [
    ("lines.csv", "record 3: negative line strength -1e-19"),
    ("lines.par", "record 2, columns 16-25: cannot parse strength from "
                  "'xxxxxxxxxx'"),
], ids=["csv", "par"])
def test_bad_line_list_record_names_the_file(small_demo_config, tmp_path,
                                             capsys, lines, where):
    # a run reads two data files, so a record's error names its list
    paths = _text_inputs(small_demo_config, tmp_path, lines)
    _spoil_record_2(paths["lines"])
    assert main(["simulate", str(paths["config"]), "-o",
                 str(tmp_path / "x.nlm")]) == 1
    assert capsys.readouterr().err == f"nlispec: {paths['lines']}: {where}\n"
    assert not (tmp_path / "x.nlm").exists()


@pytest.mark.parametrize("command", [["simulate", "-o", "x.nlm"],
                                     ["pump-angle"]])
def test_config_path_that_is_a_directory_exits_1(tmp_path, capsys, command):
    argv = [command[0], str(tmp_path), *command[1:]]
    assert main(argv) == 1
    assert str(tmp_path) in capsys.readouterr().err


def test_percent_sign_in_a_config_value_is_read_as_itself(tmp_path,
                                                          capsys):
    # both INI files are read without interpolation: a `%` that is not
    # `%%` or `%(name)s` used to end in a configparser traceback
    shutil.copy(data_path("co2_synthetic_lines.csv"), tmp_path / "co2%.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG.replace("co2_synthetic_lines.csv", "co2%.csv"))
    assert load_run_config(cfg).lines_path == str(tmp_path / "co2%.csv")
    assert main(["pump-angle", str(cfg)]) == 0


def test_par_record_with_a_non_numeric_einstein_a_loads(tmp_path):
    line = load_line_csv(data_path("co2_synthetic_lines.csv"))[0]
    path = tmp_path / "lines.par"
    path.write_text(_par_record(line, einstein_a="not read") + "\n")
    (back,) = load_par_file(path)
    assert back.mol_id == line.mol_id and back.iso_id == line.iso_id
    assert back.nu0_cm == line.nu0_cm
    assert (back.gamma_air, back.gamma_self) == (line.gamma_air,
                                                 line.gamma_self)


def test_coarse_explicit_grid_step_at_low_pressure_exits_2(tmp_path, capsys):
    # at 0.01 Torr the lines are Doppler-limited, ~0.0024 cm^-1 wide: the
    # demo's 0.25 cm^-1 step is ~800 times line_grid_step and would alias
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(data_path("co2_demo.cfg"), encoding="utf-8") as fh:
        cp.read_file(fh)
    cp["gas"]["pressure_torr"] = "0.01"
    assert cp["gas"]["grid_step_cm"] == "0.25"
    cfg = tmp_path / "thin.cfg"
    with open(cfg, "w", encoding="utf-8") as fh:
        cp.write(fh)
    out = tmp_path / "x.nlm"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 2
    assert f"{cfg}:[gas].grid_step_cm: " in capsys.readouterr().err
    assert not out.exists()
    # a 0 Torr gas absorbs nothing, so no step aliases it
    cp["gas"]["pressure_torr"] = "0"
    cp["signal_axis"]["samples"] = "4"
    cp["angle_axis"]["pixels"] = "8"
    with open(cfg, "w", encoding="utf-8") as fh:
        cp.write(fh)
    assert main(["simulate", str(cfg), "-o", str(out)]) == 0


@pytest.mark.parametrize("section, key, value, where", [
    # 512 samples across one rounding step of 601.5 nm cannot be distinct
    ("signal_axis", "max_nm", "601.5000000000001", "[signal_axis]"),
    # the pad reaches below 0 cm^-1 from the ~2170 cm^-1 band edge
    ("gas", "grid_pad_cm", "3000", "[gas].grid_pad_cm"),
    # ~412k points at 0.001 cm^-1, over the 200001-point cap
    ("gas", "grid_step_cm", "0.001", "[gas].grid_step_cm"),
], ids=["collapsed_signal_axis", "grid_pad", "grid_point_cap"])
def test_config_error_after_loading_names_the_file(tmp_path, capsys, section,
                                                   key, value, where):
    # rules that the builders check after load_run_config name the file
    # as its own errors do
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(data_path("co2_demo.cfg"), encoding="utf-8") as fh:
        cp.read_file(fh)
    cp[section][key] = value
    cfg = tmp_path / "run.cfg"
    with open(cfg, "w", encoding="utf-8") as fh:
        cp.write(fh)
    out = tmp_path / "x.nlm"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 2
    assert f"{cfg}:{where}: " in capsys.readouterr().err
    assert not out.exists()


def test_info_reads_a_long_csv_body_as_it_streams(tmp_path, capsys):
    # CRLF line ends, blank and comment lines in the body, then one byte
    # that is not UTF-8 far past the first block the reader decodes
    rng = np.random.default_rng(8)
    axes = MapAxes(np.linspace(600.0, 612.0, 400), np.linspace(-5e-3, 5e-3, 8))
    m = IntensityMap(axes, rng.uniform(0.1, 2.0, axes.shape))
    path = tmp_path / "m.csv"
    save_map(path, m)
    lines = path.read_bytes().split(b"\n")
    lines[100:100] = [b"", b"# a comment", b""]
    path.write_bytes(b"\r\n".join(lines))
    back = load_map(path)
    np.testing.assert_array_equal(back.intensity, m.intensity)
    np.testing.assert_array_equal(back.axes.wavelength_nm, axes.wavelength_nm)

    row_300 = 3 + 3 + 300   # magic, meta and header; the inserted lines
    lines[row_300] = lines[row_300][:30] + b"\xff" + lines[row_300][30:]
    path.write_bytes(b"\r\n".join(lines))
    assert main(["info", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("extra", ["   ", "\t", "  # note"],
                         ids=["spaces", "tab", "indented_comment"])
def test_text_tables_skip_whitespace_and_indented_comment_lines(tmp_path,
                                                                extra):
    rng = np.random.default_rng(9)
    axes = MapAxes(np.linspace(600.0, 603.0, 4), np.linspace(-1e-3, 1e-3, 3))
    m = IntensityMap(axes, rng.uniform(0.1, 2.0, axes.shape))
    result = RetrievalResult(*rng.uniform(0.1, 2.0, (9, 4)),
                             rows=np.arange(4))
    map_path, table_path = tmp_path / "m.csv", tmp_path / "r.csv"
    save_map(map_path, m)
    save_result_csv(table_path, result)
    for path in (map_path, table_path):
        lines = path.read_text().split("\n")
        lines.insert(4, extra)   # between the first two body rows
        path.write_text("\n".join(lines))

    back = load_map(map_path)
    np.testing.assert_array_equal(back.intensity, m.intensity)
    np.testing.assert_array_equal(back.axes.wavelength_nm, axes.wavelength_nm)
    assert main(["info", str(map_path)]) == 0
    table = load_result_csv(table_path)
    np.testing.assert_array_equal(table.rows, result.rows)
    np.testing.assert_array_equal(table.alpha_cm, result.alpha_cm)
    np.testing.assert_array_equal(table.index_offset_sigma,
                                  result.index_offset_sigma)


def test_info_rejects_nan_axis_value(tmp_path, capsys):
    # json.dumps writes a bare NaN, which json.loads reads back
    header = json.dumps({"rows": 3, "cols": 2,
                         "wavelength_nm": [600.0, float("nan"), 610.0],
                         "angle_rad": [0.0, 1e-3], "meta": {}}).encode()
    path = tmp_path / "nan.nlm"
    path.write_bytes(b"NLIMAP1\n" + struct.pack("<Q", len(header)) + header
                     + np.ones((3, 2)).astype("<f8").tobytes())
    assert main(["info", str(path)]) == 1
    assert "wavelength" in capsys.readouterr().err


def _native_header_only(path, wavelength, angle):
    """A .nlm map with these axes and no cells past the header."""
    header = json.dumps({"rows": len(wavelength), "cols": len(angle),
                         "wavelength_nm": wavelength, "angle_rad": angle,
                         "meta": {}}).encode()
    path.write_bytes(b"NLIMAP1\n" + struct.pack("<Q", len(header)) + header)


@pytest.mark.parametrize("name, axis", [
    ("no_angles.csv", "empty angle axis"),
    ("no_rows.nlm", "empty wavelength axis"),
    ("no_cols.nlm", "empty angle axis"),
])
@pytest.mark.parametrize("command", ["info", "retrieve"])
def test_map_with_an_empty_axis_exits_1_naming_the_file(workdir, tmp_path,
                                                        capsys, command,
                                                        name, axis):
    # written by hand: save_map refuses an empty axis
    path = tmp_path / name
    if name.endswith(".csv"):
        path.write_text("# nlispec map 1\n# {}\nwavelength_nm\n604.0\n"
                        "605.0\n")
    elif name == "no_rows.nlm":
        _native_header_only(path, [], [-1e-3, 0.0, 1e-3])
    else:
        _native_header_only(path, [604.0, 605.0], [])
    args = {"info": ["info", str(path)],
            "retrieve": ["retrieve", str(path), str(workdir / "reference.nlm"),
                         str(workdir / "run.cfg"), "-o",
                         str(tmp_path / "r.csv")]}[command]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert str(path) in err and axis in err
    assert not (tmp_path / "r.csv").exists()


def test_pump_angle_at_a_nan_signal_exits_2(workdir, capsys):
    # NaN is outside every Sellmeier validity range
    assert main(["pump-angle", str(workdir / "run.cfg"),
                 "--signal-nm=nan"]) == 2
    assert "nan-nan um outside validity range" in capsys.readouterr().err


# numeric keys of the demo config a user may mistype, as (section, key)
_FUZZ_KEYS = tuple((section, key) for section, keys in {
    "crystal": ("cut_angle_deg",),
    "pump": ("wavelength_nm", "axis_angle_deg"),
    "geometry": ("crystal_length_mm", "gap_length_mm", "aperture_mm"),
    "gas": ("molar_mass_g_mol", "pressure_torr", "temperature_k",
            "self_fraction", "wing_cutoff_cm", "partition_ratio",
            "visible_n0", "visible_p0_torr", "visible_t0_k", "grid_step_cm",
            "grid_pad_cm"),
    "signal_axis": ("min_nm", "max_nm"),
    "angle_axis": ("pixel_pitch_um", "focal_length_mm"),
    "noise": ("sigma_rel",),
}.items() for key in keys)
_FUZZ_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1.0, math.nan, math.inf, -math.inf,
                     5e-324, 1e-300, 1e300, 1.7e308]),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=True, allow_infinity=True),
)


@pytest.fixture(scope="module")
def small_demo_config():
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(data_path("co2_demo.cfg"), encoding="utf-8") as fh:
        cp.read_file(fh)
    cp["signal_axis"]["samples"] = "16"
    cp["angle_axis"]["pixels"] = "64"
    return cp


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_config_value_fuzz_exits_with_a_code(small_demo_config, tmp_path,
                                             capsys, data):
    cp = configparser.ConfigParser()
    cp.read_dict(small_demo_config)
    # one or two keys, so that no earlier bad key hides a later one
    for section, key in data.draw(st.lists(st.sampled_from(_FUZZ_KEYS),
                                           min_size=1, max_size=2,
                                           unique=True), label="keys"):
        cp[section][key] = repr(data.draw(_FUZZ_VALUES,
                                          label=f"{section}.{key}"))
    cfg = tmp_path / "fuzz.cfg"
    with open(cfg, "w", encoding="utf-8") as fh:
        cp.write(fh)
    assert main(["pump-angle", str(cfg)]) in (0, 1, 2, 3)
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "x.nlm")]) \
        in (0, 1, 2, 3)
    capsys.readouterr()


@pytest.fixture(scope="module")
def small_demo_pair(small_demo_config, tmp_path_factory):
    """A 16 x 64 sample/reference pair simulated from the demo config."""
    d = tmp_path_factory.mktemp("small_pair")
    cfg = d / "run.cfg"
    with open(cfg, "w", encoding="utf-8") as fh:
        small_demo_config.write(fh)
    for name, vacuum in (("sample.nlm", []), ("reference.nlm", ["--vacuum"])):
        assert main(["simulate", str(cfg), "-o", str(d / name),
                     *vacuum]) == 0
    return d / "sample.nlm", d / "reference.nlm"


@pytest.mark.parametrize("section, key", [
    (section, key) for section, keys in _KEYS.items() for key in keys])
def test_one_config_key_sweep_exits_with_a_code(small_demo_config,
                                                small_demo_pair, tmp_path,
                                                capsys, section, key):
    # one key at a time, so no other bad key stops the run before it
    for value in (0.0, -1.0, 5e-324, 1e300, math.nan, math.inf):
        cp = configparser.ConfigParser()
        cp.read_dict(small_demo_config)
        cp[section][key] = repr(value)
        cfg = tmp_path / "sweep.cfg"
        with open(cfg, "w", encoding="utf-8") as fh:
            cp.write(fh)
        assert main(["simulate", str(cfg), "-o", str(tmp_path / "x.nlm")]) \
            in (0, 1, 2), (key, value)
        assert main(["retrieve", *map(str, small_demo_pair), str(cfg), "-o",
                     str(tmp_path / "r.csv")]) in (0, 1, 2), (key, value)
    capsys.readouterr()


def _narrow_pair(small_demo_config, tmp_path, pixels):
    """(config, sample, reference) paths of an 8-row demo map pair on a
    strip of `pixels` pixels."""
    cp = configparser.ConfigParser()
    cp.read_dict(small_demo_config)
    cp["signal_axis"]["samples"] = "8"
    cp["angle_axis"]["pixels"] = str(pixels)
    cfg = tmp_path / "narrow.cfg"
    with open(cfg, "w", encoding="utf-8") as fh:
        cp.write(fh)
    maps = str(tmp_path / "sample.nlm"), str(tmp_path / "reference.nlm")
    assert main(["simulate", str(cfg), "-o", maps[0]]) == 0
    assert main(["simulate", str(cfg), "-o", maps[1], "--vacuum"]) == 0
    return str(cfg), *maps


@pytest.mark.parametrize("pixels", [1, 2, 3, 4])
def test_retrieve_narrow_map_exits_0_with_nan_rows(small_demo_config,
                                                   tmp_path, capsys, pixels):
    # on a symmetric strip of at most four pixels the fringe template
    # takes at most two distinct values, so every row's 3 x 3 Gram
    # matrix is singular: each row is NaN, and the run still ends in a
    # table; the fitter's pass 0 alone (polish=False) meets the same
    # singular matrices
    cfg, *maps = _narrow_pair(small_demo_config, tmp_path, pixels)
    out = tmp_path / "result.csv"
    assert main(["retrieve", *maps, cfg, "-o", str(out)]) == 0
    assert capsys.readouterr().out.endswith(
        f"retrieved 8 rows to {out} (no finite rows)\n")
    linear = retrieve(*maps, build_geometry(load_run_config(cfg)),
                      polish=False)
    for res in (load_result_csv(out), linear):
        np.testing.assert_array_equal(res.rows, np.arange(8))
        for name in ("visibility", "alpha_cm", "alpha_sigma_cm",
                     "phase_shift_rad", "index_offset", "index_offset_sigma"):
            assert np.isnan(getattr(res, name)).all(), name


@pytest.mark.parametrize("pixels", [1, 2, 3, 4])
def test_retrieve_extrema_narrow_map_is_nan_without_a_warning(
        small_demo_config, tmp_path, capsys, pixels):
    # too few pixels to hold _MIN_FRINGES fringes: every row is NaN before
    # the envelope fit, so numpy's RankWarning, an error under this
    # suite's filterwarnings, never fires
    cfg, *maps = _narrow_pair(small_demo_config, tmp_path, pixels)
    out = tmp_path / "result.csv"
    assert main(["retrieve", *maps, cfg, "-o", str(out), "--engine",
                 "extrema"]) == 0
    assert capsys.readouterr().out.endswith("(no finite rows)\n")
    res = load_result_csv(out)
    np.testing.assert_array_equal(res.rows, np.arange(8))
    for name in ("visibility", "alpha_cm", "alpha_sigma_cm"):
        assert np.isnan(getattr(res, name)).all(), name


def test_retrieve_eight_pixel_map_is_fitted(small_demo_config, tmp_path):
    # eight pixels give Gram matrices of cond 2-4e11 but not singular
    # ones: the noiseless rows are fitted, to 1e-3 cm^-1 (measured 4e-5)
    cfg, *maps = _narrow_pair(small_demo_config, tmp_path, 8)
    out = tmp_path / "result.csv"
    assert main(["retrieve", *maps, cfg, "-o", str(out)]) == 0
    res = load_result_csv(out)
    truth = build_gas(load_run_config(cfg))
    err = res.alpha_cm - truth.idler_absorption_at(res.idler_wavelength_nm)
    assert np.abs(err).max() <= 1e-3


def test_outputs_take_the_umask_mode(workdir, tmp_path):
    cfg = str(workdir / "run.cfg")
    old = os.umask(0o022)
    try:
        for name in ("m.nlm", "m.csv", "m.pgm"):
            assert main(["simulate", cfg, "-o", str(tmp_path / name)]) == 0
        assert main(["retrieve", str(workdir / "sample.nlm"),
                     str(workdir / "reference.nlm"), cfg, "-o",
                     str(tmp_path / "r.csv"), "--every", "8"]) == 0
    finally:
        os.umask(old)
    for name in ("m.nlm", "m.csv", "m.pgm", "m.pgm.json", "r.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644, name


@pytest.mark.parametrize("blocked", ["x.pgm.json", "x.pgm"])
def test_failed_pgm_save_leaves_no_file(workdir, tmp_path, capsys, blocked):
    # a directory stands where one of the two files goes
    (tmp_path / blocked).mkdir()
    assert main(["simulate", str(workdir / "run.cfg"), "-o",
                 str(tmp_path / "x.pgm")]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [blocked]
    assert (tmp_path / blocked).is_dir()


@pytest.mark.parametrize("option, edit", [
    (("--noise", "-1"), None),
    (("--noise", "nan"), None),
    ((), "sigma_rel = nan"),
    (("--seed", "-1"), None),
    ((), "seed = -5"),
    (("--noise", "1e308"), None),
    ((), "sigma_rel = 1.7e308"),
], ids=["noise_negative", "noise_nan", "sigma_rel_nan", "seed_negative",
        "config_seed_negative", "noise_overflow", "sigma_rel_overflow"])
def test_exit_code_noise_out_of_range(tmp_path, option, edit):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG + ("\n[noise]\nsigma_rel = 0.01\n" if edit is None
                          else f"\n[noise]\n{edit}\n"))
    out = subprocess.run([sys.executable, "-m", "nlispec.cli", "simulate",
                          str(cfg), "-o", str(tmp_path / "x.nlm"), *option],
                         capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert "config error" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "x.nlm").exists()


@pytest.mark.parametrize("option", [("--noise", "-1"), ("--noise", "nan"),
                                    ("--seed", "-1")])
def test_bad_noise_option_fails_before_the_gas_is_built(tmp_path, monkeypatch,
                                                        capsys, option):
    def no_gas(cfg):
        pytest.fail("the gas was built before --noise/--seed were checked")

    monkeypatch.setattr(cli, "build_gas", no_gas)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG)
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "x.nlm"),
                 *option]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x.nlm").exists()


def test_import_does_not_load_scipy():
    # the runtime is numpy only: importing scipy would dominate CLI start-up
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, nlispec, nlispec.cli; print(sorted(k for k in "
         "sys.modules if k == 'scipy' or k.startswith('scipy.')))"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _imported_modules(args) -> set:
    """The modules a fresh `nlispec` CLI process loads, from -X importtime."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "nlispec.cli", *args],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_each_command_loads_only_its_modules(workdir, tmp_path):
    # compiling modules a command never uses costs every CLI call time
    # and peak memory
    cfg = str(workdir / "run.cfg")
    simulate = _imported_modules(
        ["simulate", cfg, "-o", str(tmp_path / "s.nlm")])
    retrieve = _imported_modules(
        ["retrieve", str(workdir / "sample.nlm"),
         str(workdir / "reference.nlm"), cfg, "-o", str(tmp_path / "r.csv")])
    assert {"nlispec.gas", "nlispec.lineshape", "nlispec.kk"} <= simulate
    assert "nlispec.retrieval" not in simulate
    assert "nlispec.retrieval" in retrieve
    assert not retrieve & {"nlispec.gas", "nlispec.lineshape", "nlispec.kk"}


def test_import_does_not_load_scipy_stats():
    # scipy.stats alone costs ~0.2 s and ~20 MB on every CLI call
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, nlispec; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# ------------------------------------------------- full-size shipped demo

DEMO_CFG = str(data_path("co2_demo.cfg"))
DEMO_NOISE = ("0", "1e-3", "3e-2")


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    """The README quick-start maps, 512 x 640, at each noise level."""
    d = tmp_path_factory.mktemp("demo")
    for noise in DEMO_NOISE:
        assert main(["simulate", DEMO_CFG, "-o", str(d / f"s{noise}.nlm"),
                     "--noise", noise]) == 0
        assert main(["simulate", DEMO_CFG, "-o", str(d / f"r{noise}.nlm"),
                     "--noise", noise, "--vacuum"]) == 0
    return d


def _cli_retrieve(d, noise, out, *options):
    proc = subprocess.run(
        [sys.executable, "-m", "nlispec.cli", "retrieve",
         str(d / f"s{noise}.nlm"), str(d / f"r{noise}.nlm"), DEMO_CFG,
         "-o", str(out), *options], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return load_result_csv(out)


def _projected_amplitude(intensity, phase, envelope):
    """Per-row lstsq amplitude on {E, E cos phi, E sin phi}."""
    return np.array([
        np.linalg.lstsq(np.column_stack((e, e * np.cos(p), e * np.sin(p))),
                        row, rcond=None)[0][0]
        for row, p, e in zip(intensity, phase, envelope)])


@pytest.mark.parametrize("noise", DEMO_NOISE)
def test_retrieve_full_demo_nan_only_on_dark_rows(demo_dir, tmp_path, noise):
    res = _cli_retrieve(demo_dir, noise, tmp_path / "model.csv")
    cfg = load_run_config(DEMO_CFG)
    geom = build_geometry(cfg)
    sample = load_map(demo_dir / f"s{noise}.nlm")
    reference = load_map(demo_dir / f"r{noise}.nlm")
    axes = sample.axes
    n_vis = gas_index(cfg.visible, cfg.pressure_torr, cfg.temperature_k)
    phase_s, envelope, _ = _model_pattern(geom, axes.wavelength_nm,
                                          axes.angle_rad, n_vis)
    phase_r, _, _ = _model_pattern(geom, axes.wavelength_nm, axes.angle_rad)
    dark = ((_projected_amplitude(sample.intensity, phase_s, envelope) <= 0)
            | (_projected_amplitude(reference.intensity, phase_r,
                                    envelope) <= 0))
    np.testing.assert_array_equal(np.isnan(res.alpha_cm), dark)
    np.testing.assert_array_equal(np.isnan(res.index_offset), dark)
    if noise == "0":
        truth = build_gas(cfg)
        lam_i = res.idler_wavelength_nm
        assert np.abs(res.alpha_cm
                      - truth.idler_absorption_at(lam_i)).max() <= 1e-8
        assert np.abs(n_vis + res.index_offset
                      - truth.idler_index_at(lam_i)).max() <= 1e-11


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("p_torr", [300.0, 760.0])
def test_full_demo_index_has_no_fringe_wrap_at_high_pressure(p_torr):
    # a fitted phase that wraps past +-pi puts a row's index off by one
    # fringe, lambda_i / L_m = 1.8e-4, yet the run exits 0
    cfg = dataclasses.replace(load_run_config(DEMO_CFG), pressure_torr=p_torr)
    geom, axes, gas = build_geometry(cfg), build_axes(cfg), build_gas(cfg)
    sample = IntensityMap(axes, simulate_map(geom, gas, axes))
    reference = IntensityMap(axes, simulate_map(geom, build_vacuum(cfg), axes))
    n_vis = gas_index(cfg.visible, cfg.pressure_torr, cfg.temperature_k)
    res = retrieve(sample, reference, geom, rows=range(0, axes.shape[0], 2),
                   sample_visible_index=n_vis)
    finite = np.isfinite(res.index_offset)
    err = np.abs(n_vis + res.index_offset
                 - gas.idler_index_at(res.idler_wavelength_nm))
    assert finite.any() and err[finite].max() <= 1e-10


def test_retrieve_full_demo_extrema_engine(demo_dir, tmp_path):
    # the polynomial envelope goes non-positive on a few edge rows; those
    # rows are NaN and the rest cross-check the model engine
    ext = _cli_retrieve(demo_dir, "0", tmp_path / "ext.csv",
                        "--engine", "extrema")
    model = _cli_retrieve(demo_dir, "0", tmp_path / "model.csv")
    finite = np.isfinite(ext.alpha_cm)
    assert finite.sum() >= 480
    assert np.abs(ext.alpha_cm[finite] - model.alpha_cm[finite]).max() <= 5e-3


@pytest.fixture(scope="module")
def noisy_demo_tables(demo_dir, tmp_path_factory):
    """(extrema, model) result tables of the noisy demo maps, by noise."""
    d = tmp_path_factory.mktemp("noisy_tables")
    return {noise: (_cli_retrieve(demo_dir, noise, d / f"e{noise}.csv",
                                  "--engine", "extrema"),
                    _cli_retrieve(demo_dir, noise, d / f"m{noise}.csv"))
            for noise in DEMO_NOISE[1:]}


@pytest.mark.parametrize("noise", DEMO_NOISE[1:])
def test_retrieve_full_demo_extrema_engine_noisy(noisy_demo_tables, noise):
    # exit 0 without a traceback is checked by _cli_retrieve
    ext, model = noisy_demo_tables[noise]
    assert np.isfinite(ext.alpha_cm).sum() >= 400
    both = np.isfinite(ext.alpha_cm) & np.isfinite(model.alpha_cm)
    # the noiseless bound plus a term that grows with the noise
    assert np.median(np.abs(ext.alpha_cm[both] - model.alpha_cm[both])) \
        <= 5e-3 + 3.0 * float(noise)


@pytest.mark.xfail(strict=True, reason=(
    "detection noise makes extra local extrema that bias the extrema "
    "engine's contrast: max |dalpha| is 0.98 cm^-1 at noise 1e-3 and "
    "0.42 cm^-1 at 3e-2"))
@pytest.mark.parametrize("noise", DEMO_NOISE[1:])
def test_full_demo_extrema_engine_agrees_row_by_row_under_noise(
        noisy_demo_tables, noise):
    ext, model = noisy_demo_tables[noise]
    both = np.isfinite(ext.alpha_cm) & np.isfinite(model.alpha_cm)
    assert np.abs(ext.alpha_cm[both] - model.alpha_cm[both]).max() <= 5e-3


def test_demo_sample_and_reference_noise_independent(demo_dir):
    noise = [load_map(demo_dir / f"{kind}3e-2.nlm").intensity
             - load_map(demo_dir / f"{kind}0.nlm").intensity
             for kind in ("s", "r")]
    assert abs(np.corrcoef(noise[0].ravel(), noise[1].ravel())[0, 1]) < 0.01


def test_retrieve_summary_reports_band_peak(demo_dir, tmp_path, capsys):
    # at 3e-2 noise dim edge rows fit to large alpha with large sigma
    out = tmp_path / "model.csv"
    assert main(["retrieve", str(demo_dir / "s3e-2.nlm"),
                 str(demo_dir / "r3e-2.nlm"), DEMO_CFG, "-o", str(out)]) == 0
    summary = capsys.readouterr().out
    assert summary.isascii()  # prints on any console encoding
    found = re.search(r"peak absorption (\S+) \+/- (\S+) cm\^-1 at row (\d+)",
                      summary)
    peak, sigma, row = float(found[1]), float(found[2]), int(found[3])
    res = load_result_csv(out)
    assert res.rows[row] == row
    assert 2294.0 <= res.idler_nu_cm[row] <= 2404.0
    truth = build_gas(load_run_config(DEMO_CFG)).idler_absorption_at(
        res.idler_wavelength_nm[row])
    assert abs(peak - truth) <= 3.0 * sigma


@pytest.mark.parametrize("edits", [
    (("aperture_mm = 2.0\n", ""),
     ("pixel_pitch_um = 13.0", "pixel_pitch_um = 3000.0")),
    (("min_nm = 601.5", "min_nm = 520"),
     ("axis_angle_deg = auto", "axis_angle_deg = 47.0")),
    (("molar_mass_g_mol = 44.0095", "molar_mass_g_mol = 1e-300"),),
    (("pressure_torr = 10.5", "pressure_torr = 1e300"),),
    (("visible_n0 = 1.000449", "visible_n0 = 1e300"),),
], ids=["evanescent_angle", "signal_below_pump", "doppler_underflow",
        "absorption_overflow", "map_overflow"])
def test_exit_code_physics_out_of_range(tmp_path, edits):
    with open(DEMO_CFG, encoding="utf-8") as fh:
        text = fh.read()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    out = subprocess.run([sys.executable, "-m", "nlispec.cli", "simulate",
                          str(bad), "-o", str(tmp_path / "x.nlm")],
                         capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert "config error" in out.stderr
    assert "Traceback" not in out.stderr


def _part_files(directory) -> list:
    return sorted(p.name for p in directory.iterdir()
                  if p.name.startswith("tmp") and p.name.endswith(".part"))


@pytest.mark.parametrize("suffix", [".nlm", ".csv", ".pgm"])
def test_simulate_failing_in_a_late_block_leaves_no_file(tmp_path,
                                                         monkeypatch, capsys,
                                                         suffix):
    # the demo map is 16 row blocks; block 12 renders a NaN
    import nlispec.interferometer as interferometer

    real, calls, written = interferometer.interference_intensity, [], []

    def late_nan(*args):
        calls.append(None)
        out = real(*args)
        if len(calls) == 12:
            written.extend(_part_files(tmp_path))
            out[5, 7] = math.nan
        return out

    monkeypatch.setattr(interferometer, "interference_intensity", late_nan)
    assert main(["simulate", DEMO_CFG, "-o", str(tmp_path / f"m{suffix}")]) \
        == 2
    err = capsys.readouterr().err
    assert "simulated intensity is not finite" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    # .nlm and .csv maps fail mid-write; a .pgm in its range pass
    assert len(written) == (suffix != ".pgm")


@pytest.mark.parametrize("suffix", [".nlm", ".csv", ".pgm"])
def test_simulate_noise_overflow_mid_write_leaves_no_file(tmp_path,
                                                          monkeypatch, capsys,
                                                          suffix):
    real, written = cli.with_gaussian_noise, []

    def noise(*args):
        written.extend(_part_files(tmp_path))
        return real(*args)

    monkeypatch.setattr(cli, "with_gaussian_noise", noise)
    assert main(["simulate", DEMO_CFG, "--noise", "1e308",
                 "-o", str(tmp_path / f"m{suffix}")]) == 2
    err = capsys.readouterr().err
    assert "drives the map out of floating-point range" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    assert len(written) == (suffix != ".pgm")
