import io
import json
import math
import struct

import numpy as np
import pytest

from nlispec.errors import MapFormatError
from nlispec.interferometer import MapAxes
from nlispec.mapio import (IntensityMap, load_map, open_map, save_map,
                           save_map_blocks, write_text_table)


@pytest.fixture
def sample_map():
    rng = np.random.default_rng(3)
    axes = MapAxes(np.linspace(601.5, 614.5, 7),
                   np.linspace(-6.6e-3, 6.6e-3, 11))
    data = 0.5 + 0.5 * np.cos(rng.normal(size=axes.shape))
    # awkward values that expose lossy formatting
    data[0, 0] = 1.0 / 3.0
    data[1, 1] = 1e-17
    return IntensityMap(axes, data, meta={"pressure_torr": 10.5, "seed": 3})


def test_native_round_trip_bit_exact(tmp_path, sample_map):
    p = tmp_path / "m.nlm"
    save_map(p, sample_map)
    back = load_map(p)
    assert np.array_equal(back.intensity, sample_map.intensity)
    assert np.array_equal(back.axes.wavelength_nm, sample_map.axes.wavelength_nm)
    assert np.array_equal(back.axes.angle_rad, sample_map.axes.angle_rad)
    assert back.meta == sample_map.meta


def test_csv_round_trip_bit_exact(tmp_path, sample_map):
    p = tmp_path / "m.csv"
    save_map(p, sample_map)
    back = load_map(p)
    assert np.array_equal(back.intensity, sample_map.intensity)
    assert np.array_equal(back.axes.angle_rad, sample_map.axes.angle_rad)
    assert back.meta == sample_map.meta


def test_csv_layout_is_pinned(tmp_path):
    axes = MapAxes(np.array([600.0, 601.5]), np.array([-1e-3, 0.0, 1 / 3]))
    m = IntensityMap(axes, np.array([[0.25, 1e-17, 0.1], [1.0, 2.0, 3.5]]),
                     meta={"seed": 3, "kind": "sample"})
    save_map(tmp_path / "m.csv", m)
    assert (tmp_path / "m.csv").read_bytes() == (
        b"# nlispec map 1\n"
        b'# meta: {"kind": "sample", "seed": 3}\n'
        b"wavelength_nm,-0.001,0,0.33333333333333331\n"
        b"600,0.25,1.0000000000000001e-17,0.10000000000000001\n"
        b"601.5,1,2,3.5\n")


def test_csv_hand_made_map_loads(tmp_path):
    # no magic line, CRLF line ends, spaces after commas, and blank and
    # comment lines between the data rows
    p = tmp_path / "hand.csv"
    p.write_bytes(b'# meta: {"kind": "sample"}\r\n'
                  b"wavelength_nm, -0.001, 0.001\r\n"
                  b"600.0,1,2\r\n\r\n# dark frame subtracted\r\n"
                  b"601.0, 3, 4\r\n")
    m = load_map(p)
    assert m.meta == {"kind": "sample"}
    np.testing.assert_array_equal(m.axes.wavelength_nm, [600.0, 601.0])
    np.testing.assert_array_equal(m.axes.angle_rad, [-1e-3, 1e-3])
    np.testing.assert_array_equal(m.intensity, [[1.0, 2.0], [3.0, 4.0]])


def test_pgm_round_trip_within_quantization(tmp_path, sample_map):
    p = tmp_path / "m.pgm"
    save_map(p, sample_map)
    back = load_map(p)
    step = np.ptp(sample_map.intensity) / 65535
    assert np.abs(back.intensity - sample_map.intensity).max() <= 0.51 * step
    assert back.meta == sample_map.meta
    assert (tmp_path / "m.pgm.json").exists()


def test_pgm_constant_map(tmp_path):
    axes = MapAxes(np.array([600.0, 601.0]), np.array([0.0, 1e-3]))
    m = IntensityMap(axes, np.full((2, 2), 0.25))
    p = tmp_path / "flat.pgm"
    save_map(p, m)
    np.testing.assert_allclose(load_map(p).intensity, 0.25, rtol=1e-12)


def test_unknown_suffix_rejected(tmp_path, sample_map):
    with pytest.raises(MapFormatError, match="suffix"):
        save_map(tmp_path / "m.tiff", sample_map)
    (tmp_path / "m.xyz").write_text("x")
    with pytest.raises(MapFormatError):
        load_map(tmp_path / "m.xyz")


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_map(tmp_path / "absent.nlm")


def test_corrupt_native_variants(tmp_path, sample_map):
    p = tmp_path / "m.nlm"
    save_map(p, sample_map)
    blob = p.read_bytes()

    bad_magic = tmp_path / "a.nlm"
    bad_magic.write_bytes(b"NOTAMAP!" + blob[8:])
    with pytest.raises(MapFormatError, match="magic"):
        load_map(bad_magic)

    truncated = tmp_path / "b.nlm"
    truncated.write_bytes(blob[:-17])
    with pytest.raises(MapFormatError, match="data bytes"):
        load_map(truncated)

    short = tmp_path / "c.nlm"
    short.write_bytes(blob[:10])
    with pytest.raises(MapFormatError):
        load_map(short)

    # a header length past the end of the file is refused before a read
    huge = tmp_path / "d.nlm"
    huge.write_bytes(blob[:8] + struct.pack("<Q", 2 ** 62) + blob[16:])
    with pytest.raises(MapFormatError, match="truncated header"):
        load_map(huge)

    long = tmp_path / "e.nlm"
    long.write_bytes(blob + bytes(8))
    with pytest.raises(MapFormatError, match="found 624"):
        load_map(long)


def test_corrupt_csv_variants(tmp_path, sample_map):
    p = tmp_path / "m.csv"
    save_map(p, sample_map)
    lines = p.read_text().splitlines()

    missing_cell = tmp_path / "a.csv"
    broken = lines.copy()
    broken[4] = ",".join(broken[4].split(",")[:-2])
    missing_cell.write_text("\n".join(broken) + "\n")
    with pytest.raises(MapFormatError, match="cells"):
        load_map(missing_cell)

    bad_value = tmp_path / "b.csv"
    broken = lines.copy()
    broken[5] = broken[5].replace(broken[5].split(",")[1], "not-a-number", 1)
    bad_value.write_text("\n".join(broken) + "\n")
    with pytest.raises(MapFormatError):
        load_map(bad_value)

    empty = tmp_path / "c.csv"
    empty.write_text("# meta: {}\n")
    with pytest.raises(MapFormatError, match="no data"):
        load_map(empty)

    header_only = tmp_path / "d.csv"
    header_only.write_text("\n".join(lines[:3]) + "\n\n# no rows\n")
    with pytest.raises(MapFormatError, match="no data"):
        load_map(header_only)


def _not_a_number(lines):
    lines[5] = lines[5].replace(lines[5].split(",")[2], "not-a-number", 1)


def _short_row(lines):
    lines[5] = ",".join(lines[5].split(",")[:-1])


def _blank_and_comment_first(lines):
    _not_a_number(lines)
    lines[3:3] = ["", "# a comment"]  # they count as file lines


def _whitespace_and_indented_comment_first(lines):
    _not_a_number(lines)
    lines[3:3] = ["   ", "\t", "  # note"]


@pytest.mark.parametrize("edit, line", [
    (_not_a_number, 6), (_short_row, 6), (_blank_and_comment_first, 8),
    (_whitespace_and_indented_comment_first, 9),
], ids=["not_a_number", "short_row", "after_blank_and_comment",
        "after_whitespace_and_indented_comment"])
def test_csv_bad_cell_names_the_file_line(tmp_path, sample_map, edit, line):
    p = tmp_path / "m.csv"
    save_map(p, sample_map)
    lines = p.read_text().splitlines()
    edit(lines)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(MapFormatError, match="cells") as err:
        load_map(p)
    assert f"m.csv:{line}:" in str(err.value)


@pytest.mark.parametrize("edit", [
    lambda side: side.pop("intensity_offset"),
    lambda side: side.pop("intensity_span"),
    lambda side: side.update(intensity_offset="low"),
    lambda side: side.update(intensity_span=[1.0, 2.0]),
    lambda side: side.update(intensity_span=None),
    lambda side: side.update(intensity_span=math.inf),
], ids=["no_offset", "no_span", "text_offset", "list_span", "null_span",
        "inf_span"])
def test_pgm_sidecar_scale_defects(tmp_path, sample_map, edit):
    p = tmp_path / "m.pgm"
    save_map(p, sample_map)
    side = json.loads((tmp_path / "m.pgm.json").read_text())
    edit(side)
    (tmp_path / "m.pgm.json").write_text(json.dumps(side))
    with pytest.raises(MapFormatError, match="intensity"):
        load_map(p)


def test_native_non_finite_intensity(tmp_path, sample_map):
    p = tmp_path / "m.nlm"
    save_map(p, sample_map)
    blob = bytearray(p.read_bytes())
    blob[-8:] = np.array([math.nan], dtype="<f8").tobytes()
    p.write_bytes(bytes(blob))
    with pytest.raises(MapFormatError, match="finite"):
        load_map(p)


def test_pgm_sidecar_not_utf8(tmp_path, sample_map):
    p = tmp_path / "m.pgm"
    save_map(p, sample_map)
    side = tmp_path / "m.pgm.json"
    side.write_bytes(side.read_bytes().replace(b"meta", b"m\xffta"))
    with pytest.raises(MapFormatError, match="m.pgm.json"):
        load_map(p)


def test_pgm_without_sidecar(tmp_path, sample_map):
    p = tmp_path / "m.pgm"
    save_map(p, sample_map)
    (tmp_path / "m.pgm.json").unlink()
    with pytest.raises(MapFormatError, match="sidecar"):
        load_map(p)


def test_pgm_sidecar_mismatch(tmp_path, sample_map):
    p = tmp_path / "m.pgm"
    save_map(p, sample_map)
    side = json.loads((tmp_path / "m.pgm.json").read_text())
    side["rows"] = 99
    side["wavelength_nm"] = list(range(1, 100))
    (tmp_path / "m.pgm.json").write_text(json.dumps(side))
    with pytest.raises(MapFormatError):
        load_map(p)


def test_intensity_map_validation(sample_map):
    axes = sample_map.axes
    with pytest.raises(ValueError, match="shape"):
        IntensityMap(axes, np.zeros((3, 3)))
    bad = np.array(sample_map.intensity)
    bad[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        IntensityMap(axes, bad)


def test_meta_must_be_serializable(tmp_path, sample_map):
    weird = IntensityMap(sample_map.axes, sample_map.intensity,
                         meta={"fn": math.sin})
    with pytest.raises(TypeError):
        save_map(tmp_path / "m.nlm", weird)


def test_no_partial_file_on_failed_save(tmp_path, sample_map, monkeypatch):
    # atomic write: simulated full disk leaves no .nlm behind
    import nlispec.mapio as mapio

    def explode(path, payload):
        raise OSError("disk full")

    monkeypatch.setattr(mapio, "_atomic_write_bytes", explode)
    with pytest.raises(OSError):
        save_map(tmp_path / "m.nlm", sample_map)
    assert list(tmp_path.iterdir()) == []


def test_text_table_in_row_blocks_matches_one_savetxt(tmp_path):
    # 150 rows: four full 32-row blocks and a partial one
    table = np.random.default_rng(5).normal(size=(150, 4))
    table[3, 1], table[70, 2], table[149, 0] = math.nan, 1.0 / 3.0, 1e-300
    write_text_table(tmp_path / "t.csv", "# magic", {"b": 1, "a": [2]},
                     ("w", "x", "y", "z"), table)
    whole = io.StringIO()
    np.savetxt(whole, table, fmt="%.17g", delimiter=",", comments="",
               header='# magic\n# meta: {"a": [2], "b": 1}\nw,x,y,z')
    assert (tmp_path / "t.csv").read_bytes() == whole.getvalue().encode()


def test_no_partial_file_when_a_chunk_fails(tmp_path):
    import nlispec.mapio as mapio

    def chunks():
        yield b"first block\n"
        raise OSError("disk full")

    with pytest.raises(OSError):
        mapio._atomic_write_bytes(tmp_path / "t.csv", chunks())
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def tall_map():
    # 100 rows: three full 32-row blocks and a partial one
    rng = np.random.default_rng(19)
    axes = MapAxes(np.linspace(600.0, 615.0, 100), np.linspace(-5e-3, 5e-3, 9))
    return IntensityMap(axes, rng.uniform(0.1, 2.0, axes.shape), {"k": 1})


@pytest.mark.parametrize("calls", [
    [range(100)], [range(0, 100, 7)], [[3], [4, 5], range(31, 33), [99]],
    [[0, 0, 1], [40, 40], []],
], ids=["all", "strided", "several_calls", "repeated"])
@pytest.mark.parametrize("suffix", [".nlm", ".csv", ".pgm"])
def test_reader_rows_equal_load_map_rows(tmp_path, tall_map, suffix, calls):
    path = tmp_path / f"m{suffix}"
    save_map(path, tall_map)
    whole = load_map(path)
    with open_map(path) as reader:
        assert reader.meta == whole.meta
        np.testing.assert_array_equal(reader.axes.wavelength_nm,
                                      whole.axes.wavelength_nm)
        np.testing.assert_array_equal(reader.axes.angle_rad,
                                      whole.axes.angle_rad)
        for idx in calls:
            np.testing.assert_array_equal(reader.rows(list(idx)),
                                          whole.intensity[list(idx)])
        reader.read_to_end()
        with pytest.raises(ValueError, match="increasing"):
            reader.rows([50])


@pytest.mark.parametrize("suffix", [".nlm", ".csv"])
def test_reader_checks_the_rows_it_skips(tmp_path, tall_map, suffix):
    # a NaN in row 70, which no call below asks for
    path = tmp_path / f"m{suffix}"
    save_map(path, tall_map)
    if suffix == ".nlm":
        blob = bytearray(path.read_bytes())
        at = len(blob) - tall_map.intensity.nbytes + (70 * 9 + 4) * 8
        blob[at:at + 8] = np.array([math.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
    else:
        lines = path.read_text().splitlines()
        cells = lines[3 + 70].split(",")
        cells[5] = "nan"
        lines[3 + 70] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    with open_map(path) as reader:
        np.testing.assert_array_equal(reader.rows([10, 60]),
                                      tall_map.intensity[[10, 60]])
        with pytest.raises(MapFormatError, match="row 70 is not"):
            reader.read_to_end()
    with pytest.raises(MapFormatError, match="finite"):
        load_map(path)


@pytest.mark.parametrize("suffix", [".nlm", ".csv", ".pgm"])
def test_save_map_blocks_takes_any_row_partition(tmp_path, tall_map, suffix):
    rows = tall_map.intensity
    passes = []

    def blocks():
        passes.append(None)
        return (rows[a:b] for a, b in ((0, 1), (1, 50), (50, 50), (50, 100)))

    save_map(tmp_path / f"whole{suffix}", tall_map)
    save_map_blocks(tmp_path / f"parts{suffix}", tall_map.axes, tall_map.meta,
                    blocks)
    for name in [f"{{}}{suffix}"] + ([f"{{}}{suffix}.json"]
                                     if suffix == ".pgm" else []):
        assert (tmp_path / name.format("parts")).read_bytes() == \
            (tmp_path / name.format("whole")).read_bytes()
    # a .pgm scales its levels to a range found in a first pass
    assert len(passes) == (2 if suffix == ".pgm" else 1)


@pytest.mark.parametrize("cut, message", [
    (lambda rows: [rows[:99]], "end at row 99"),
    (lambda rows: [rows, rows[:1]], "does not fit"),
    (lambda rows: [rows[:, :-1]], "does not fit"),
    (lambda rows: [rows[:40], np.full((60, 9), math.nan)], "finite"),
], ids=["short", "long", "columns", "nan"])
@pytest.mark.parametrize("suffix", [".nlm", ".csv", ".pgm"])
def test_save_map_blocks_rejects_rows_that_do_not_fit(tmp_path, tall_map,
                                                      suffix, cut, message):
    with pytest.raises(ValueError, match=message):
        save_map_blocks(tmp_path / f"m{suffix}", tall_map.axes, {},
                        lambda: cut(tall_map.intensity))
    assert list(tmp_path.iterdir()) == []
