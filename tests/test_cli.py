import subprocess
import sys

import numpy as np
import pytest

from nlispec.cli import main
from nlispec.mapio import load_map
from nlispec.retrieval import load_result_csv

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


def test_exit_code_missing_input(workdir, tmp_path, capsys):
    code = main(["retrieve", str(tmp_path / "absent.nlm"),
                 str(workdir / "reference.nlm"), str(workdir / "run.cfg"),
                 "-o", str(tmp_path / "r.csv")])
    assert code == 1


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


def test_console_script_version():
    out = subprocess.run([sys.executable, "-m", "nlispec.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "0.1.0"


def test_csv_and_pgm_outputs(workdir, tmp_path):
    cfg = str(workdir / "run.cfg")
    for suffix in (".csv", ".pgm"):
        out = tmp_path / f"map{suffix}"
        assert main(["simulate", cfg, "-o", str(out)]) == 0
        m = load_map(out)
        assert m.intensity.shape == (16, 257)
