import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from triwell import cli
from triwell.cli import _fmt, build_parser, main, write_csv
from triwell.purity import power_law_fit


def read(path):
    return path.read_text()


def read_sidecar(path, command):
    """A JSON sidecar, after checking the stamp ``main`` puts on each one."""
    meta = json.loads(read(path))
    assert meta["command"] == command
    assert "triwell_version" in meta and meta["wall_time_s"] >= 0.0
    return meta


def test_write_csv_bytes(tmp_path):
    """Columns are written exactly as the row-by-row ``_fmt`` form."""
    floats = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, 0.1])
    # np.unique would merge the two zeros; the writer must keep both signs
    assert np.unique(floats[:2]).size == 1
    header = ["i", "b", "s", "np", "f", "l"]
    columns = [
        [0, 1, 2, 3, 4, 5, -6],
        [True, False, True, False, True, False, True],
        ["1+", "stable-center", "", "a b", "x", "-0.0", "nan"],
        [np.int64(7), np.float64(-0.0), np.float32(0.5), np.bool_(True),
         np.float64(np.nan), np.int32(-2), np.float64(1e-310)],
        floats,
        [0.25, -0.0, 1e16, 1.0 / 3.0, 0.1, 0.1, -1.5],
    ]
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    assert read(path) == (
        "i,b,s,np,f,l\n"
        "0,1,1+,7,-0.0,0.25\n"
        "1,0,stable-center,-0.0,0.0,-0.0\n"
        "2,1,,0.5,nan,1e+16\n"
        "3,0,a b,1,inf,0.3333333333333333\n"
        "4,1,x,nan,-inf,0.1\n"
        "5,0,-0.0,-2,0.1,0.1\n"
        "-6,1,nan,1e-310,0.1,-1.5\n")
    rows = [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    assert read(path) == "\n".join([",".join(header)] + rows) + "\n"

    write_csv(path, ["a", "b"], [np.zeros(0), []])
    assert read(path) == "a,b\n"
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [np.zeros(2), [1]])


def test_write_csv_in_row_chunks(tmp_path):
    """A table longer than two chunks is written exactly as the whole
    table joined row by row; ragged columns raise before the file is
    opened and leave no file."""
    n = 2 * cli._CSV_CHUNK_ROWS + 5
    rng = np.random.default_rng(0)
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf])
    floats = rng.standard_normal(n)
    floats[rng.integers(0, n, 50)] = rng.choice(special, 50)
    header = ["f", "grid", "i", "s", "b"]
    columns = [floats, np.repeat([-0.0, 0.5, 1.0 / 3.0], -(-n // 3))[:n],
               list(range(-3, n - 3)), [f"c{k % 7}" for k in range(n)],
               [k % 3 == 0 for k in range(n)]]
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    rows = [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    assert read(path) == "\n".join([",".join(header)] + rows) + "\n"

    ragged = tmp_path / "ragged.csv"
    with pytest.raises(ValueError):
        write_csv(ragged, ["a", "b"], [np.zeros(n), list(range(n - 1))])
    assert not ragged.exists()


# scipy submodules that only some commands need, loaded where they are used;
# the first three are never needed by ``scaling`` or ``purity-scan``.
_ON_DEMAND = ("scipy.stats", "scipy.optimize", "scipy.integrate",
              "scipy.ndimage", "scipy.special")


def test_start_up_loads_no_on_demand_scipy_submodule(tmp_path):
    """``import triwell`` loads none of the on-demand submodules, and the
    purity commands run without scipy.stats, scipy.optimize or
    scipy.integrate (a fresh interpreter, so nothing is loaded before)."""
    code = (
        "import sys\n"
        "import triwell, triwell.cli\n"
        "names = sys.argv[2].split(',')\n"
        "found = [m for m in names if m in sys.modules]\n"
        "assert not found, f'on import: {found}'\n"
        "for argv in sys.argv[3:]:\n"
        "    assert triwell.cli.main(argv.split() + ['--out', sys.argv[1]]) "
        "== 0, argv\n"
        "found = [m for m in names[:3] if m in sys.modules]\n"
        "assert not found, f'after the commands: {found}'\n")
    commands = ["scaling --n 10 12 14 --window-min 2.0 --window-max 3.2",
                "purity-scan --n 6 --chi-steps 3"]
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path),
                             ",".join(_ON_DEMAND), *commands],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_spectrum_outputs_and_metadata(tmp_path):
    out = tmp_path / "run"
    code = main(["spectrum", "--n", "10", "--chi", "1.0", "--k", "3",
                 "--out", str(out)])
    assert code == 0
    lines = read(out / "spectrum.csv").splitlines()
    assert lines[0] == "index,energy,residual"
    assert len(lines) == 4
    meta = read_sidecar(out / "spectrum.meta.json", "spectrum")
    assert meta["params"]["n_particles"] == 10
    assert meta["params"]["chi"] == pytest.approx(1.0)
    assert meta["max_residual"] < 1e-10
    assert "wall_time_s" in meta and "triwell_version" in meta


def test_reruns_are_byte_identical(tmp_path):
    args = ["spectrum", "--n", "8", "--chi", "2.0", "--k", "4"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert read(out1 / "spectrum.csv") == read(out2 / "spectrum.csv")


def test_purity_scan_worker_invariance(tmp_path):
    base = ["purity-scan", "--n", "6", "--chi-min", "0.0", "--chi-max", "1.0",
            "--chi-steps", "5"]
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(base + ["--workers", "3", "--out", str(out2)]) == 0
    assert read(out1 / "purity_N6.csv") == read(out2 / "purity_N6.csv")


def test_purity_scan_fans_out_per_n(tmp_path):
    out = tmp_path / "multi"
    code = main(["purity-scan", "--n", "4", "6", "--chi-min", "0.0",
                 "--chi-max", "0.5", "--chi-steps", "3", "--out", str(out)])
    assert code == 0
    assert (out / "purity_N4.csv").exists()
    assert (out / "purity_N6.csv").exists()
    assert (out / "purity_N4.meta.json").exists()
    # one wall time, the whole command's, in every sidecar
    times = {read_sidecar(out / f"purity_N{n}.meta.json",
                          "purity-scan")["wall_time_s"] for n in (4, 6)}
    assert len(times) == 1


def test_failed_command_writes_nothing(tmp_path, capsys):
    """N = 0 fails after N = 4 is done; nothing of N = 4 is left behind."""
    assert main(["purity-scan", "--n", "4", "0", "--chi-steps", "3",
                 "--out", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_mutually_exclusive_parameterizations(tmp_path):
    code = main(["spectrum", "--n", "8", "--chi", "1.0", "--kappa", "0.1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert not (tmp_path / "spectrum.csv").exists()


def test_malformed_flag_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "not-a-number", "--out", str(tmp_path)])
    assert exc.value.code == 2
    capsys.readouterr()
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "4", "--omega", "0", "--chi", "1"],
    ["spectrum", "--n", "4", "--k", "0"],
    ["scaling", "--n", "4", "5", "--window-min", "2.6", "--window-max", "2.0"],
])
def test_out_of_range_value_exits_two(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["scaling", "--n", "10", "12", "--lam", "0.3"],
    ["scaling", "--n", "10", "12", "--chi", "2.5"],   # not read as --chi-c
    ["purity-scan", "--kappa", "5"],
    ["theta-min", "--chi", "9"],
    ["fields", "--n", "8", "--k", "6"],               # not read as --kappa
])
def test_flag_a_command_does_not_take_exits_two(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["scaling", "--n", "10", "10", "15"],
    ["purity-scan", "--n", "30", "30", "--chi-steps", "3"],
])
def test_repeated_n_exits_two(tmp_path, capsys, argv):
    """A repeated --n would be solved twice and written once (or drop a row
    and the fit of ``scaling``); it is refused before any solve."""
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "must be distinct" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["fixed-points", "--kappa", "0.1", "--chi-scan", "1.5", "2.5", "5"],
    ["fixed-points", "--lam", "0.1", "--chi-scan", "1.5", "2.5", "5"],
    ["theta-min", "--n", "10", "20"],
])
def test_option_the_command_cannot_honour_exits_two(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", [
    "spectrum", "purity-scan", "scaling", "fields", "fixed-points",
    "trajectory", "theta-min"])
def test_workers_on_every_command_couplings_where_read(command):
    parser = build_parser()
    assert parser.parse_args([command, "--workers", "1"]).workers == 1
    couplings = ["--chi", "1.0", "--kappa", "0.1", "--lam", "0.2"]
    if command in ("spectrum", "fields", "fixed-points", "trajectory"):
        args = parser.parse_args([command, *couplings])
        assert (args.chi, args.kappa, args.lam) == (1.0, 0.1, 0.2)
    else:
        assert not hasattr(parser.parse_args([command]), "chi")


def test_numerical_failure_exits_three(tmp_path, capsys):
    # scaling window that cannot bracket the derivative minimum
    code = main(["scaling", "--n", "4", "5", "6", "--window-min", "0.1",
                 "--window-max", "0.3", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert not (tmp_path / "scaling.csv").exists()


def test_scaling_fits_against_chi_c_of_mu(tmp_path):
    """Without --chi-c, a --mu run fits against its own chi_c(mu)."""
    assert main(["scaling", "--mu", "0.1", "--n", "10", "12", "14",
                 "--out", str(tmp_path)]) == 0
    meta = read_sidecar(tmp_path / "scaling.meta.json", "scaling")
    assert meta["params"]["chi_c"] == 2.1294117647058823
    rows = [line.split(",") for line in
            read(tmp_path / "scaling.csv").splitlines()[1:]]
    fit = power_law_fit([int(n) for n, _ in rows],
                        [float(c) for _, c in rows], 2.1294117647058823)
    assert meta["fit"]["exponent"] == fit.exponent


def test_scaling_without_chi_c_below_its_domain_exits_three(tmp_path,
                                                            capsys):
    assert main(["scaling", "--mu", "-0.6", "--n", "10", "12", "14",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "--chi-c" in err
    assert not (tmp_path / "scaling.csv").exists()


def test_serial_output_does_not_depend_on_blas_threads(tmp_path):
    """``main`` runs on one BLAS thread whatever OPENBLAS_NUM_THREADS says,
    so a serial scaling run writes the same bytes with 1 and 2 (fresh
    interpreters, since the variable is read when OpenBLAS loads)."""
    src = Path(__file__).resolve().parents[1] / "src"
    for threads in ("1", "2"):
        subprocess.run(
            [sys.executable, "-m", "triwell.cli", "scaling", "--n", "40",
             "50", "60", "--window-min", "2.0", "--window-max", "2.6",
             "--out", str(tmp_path / threads)],
            env={**os.environ, "PYTHONPATH": str(src),
                 "OPENBLAS_NUM_THREADS": threads},
            check=True, timeout=120)
    assert ((tmp_path / "1" / "scaling.csv").read_bytes()
            == (tmp_path / "2" / "scaling.csv").read_bytes())


def test_config_file_defaults_and_precedence(tmp_path):
    shared = tmp_path / "shared.txt"
    shared.write_text("n = 9\nchi = 1.5\n# comment line\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(shared.read_text() + "pop_grid = 11\n")
    out1 = tmp_path / "r1"
    assert main(["spectrum", "--config", str(shared), "--out", str(out1)]) == 0
    meta = json.loads(read(out1 / "spectrum.meta.json"))
    assert meta["params"]["n_particles"] == 9
    assert meta["params"]["chi"] == pytest.approx(1.5)
    # explicit flags beat the config file
    out2 = tmp_path / "r2"
    assert main(["spectrum", "--config", str(shared), "--chi", "0.25",
                 "--out", str(out2)]) == 0
    meta2 = json.loads(read(out2 / "spectrum.meta.json"))
    assert meta2["params"]["chi"] == pytest.approx(0.25)
    # a subcommand-only key reaches its subcommand
    out3 = tmp_path / "r3"
    assert main(["fields", "--config", str(cfg), "--phase-grid", "8",
                 "--out", str(out3)]) == 0
    meta3 = json.loads(read(out3 / "fields.meta.json"))
    assert meta3["pop_grid"] == 11 and meta3["params"]["n_particles"] == 9
    assert meta3["params"]["chi"] == pytest.approx(1.5)
    # the --config=FILE spelling reads the file too
    out4 = tmp_path / "r4"
    assert main(["spectrum", f"--config={shared}", "--out", str(out4)]) == 0
    meta4 = json.loads(read(out4 / "spectrum.meta.json"))
    assert meta4["params"]["n_particles"] == 9


@pytest.mark.parametrize("command, entries", [
    (["fields"], "pop_gird = 11\n"),                     # a typo
    (["purity-scan", "--n", "6", "--chi-steps", "3"], "lam = 0.3\n"),
    (["purity-scan", "--n", "6", "--chi-steps", "3"], "kappa = 5\n"),
    (["spectrum"], "n = 9\npop_grid = 11\n"),         # another command's key
])
def test_config_key_the_command_does_not_take_exits_two(tmp_path, capsys,
                                                        command, entries):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(entries)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_fixed_points_table_and_branch_scan(tmp_path):
    out = tmp_path / "fp"
    code = main(["fixed-points", "--n", "30", "--chi", "3.0",
                 "--chi-scan", "1.9", "2.1", "5", "--out", str(out)])
    assert code == 0
    table = read(out / "fixed_points.csv").splitlines()
    labels = {line.split(",")[0] for line in table[1:]}
    assert labels == {"1+", "2+", "3+", "4+"}
    branch = read(out / "branch_energies.csv").splitlines()
    assert branch[0].startswith("chi,kappa,h_1p")
    # the 1+/4+ gap changes sign across chi = 2
    gaps = [float(line.split(",")[-1]) for line in branch[1:]]
    finite = [g for g in gaps if g == g]
    assert any(g > 0 for g in finite)
    read_sidecar(out / "fixed_points.meta.json", "fixed-points")


def test_fixed_points_at_an_empty_well(tmp_path):
    """At mu = -1/2 the 4+ point is w = 0 (wells 1 and 2 empty), where the
    stability is still finite."""
    out = tmp_path / "fp"
    assert main(["fixed-points", "--n", "30", "--chi", "2.0", "--mu", "-0.5",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            read(out / "fixed_points.csv").splitlines()[1:]]
    empty = [row for row in rows if float(row[2]) == 0.0]
    assert [(row[0], row[9]) for row in empty] == [("4+", "stable-center")]


def test_trajectory_files_and_drift(tmp_path):
    out = tmp_path / "tr"
    code = main(["trajectory", "--n", "30", "--chi", "1.5",
                 "--init", "1.95,0.0", "--init", "2.1,0.1",
                 "--t-max", "5.0", "--dt", "0.5", "--out", str(out)])
    assert code == 0
    assert (out / "trajectory_000.csv").exists()
    assert (out / "trajectory_001.csv").exists()
    meta = read_sidecar(out / "trajectory.meta.json", "trajectory")
    assert meta["max_relative_energy_drift"] < 1e-8
    header = read(out / "trajectory_000.csv").splitlines()[0]
    assert header == "t,i1,i2,phi1,phi2,i_z,energy"


def test_trajectory_sidecar_records_rtol_and_drift(tmp_path):
    out = tmp_path / "tr"
    assert main(["trajectory", "--n", "30", "--chi", "3.0",
                 "--init", "0.6,0.0", "--init", "1.9,0.2",
                 "--t-max", "2.0", "--dt", "0.5", "--out", str(out)]) == 0
    meta = json.loads(read(out / "trajectory.meta.json"))
    runs = meta["trajectories"]
    assert [r["file"] for r in runs] == ["trajectory_000.csv",
                                         "trajectory_001.csv"]
    for r in runs:
        assert set(r) == {"file", "rtol", "relative_energy_drift"}
        assert r["rtol"] in (1e-10, 1e-12)
        assert 0.0 <= r["relative_energy_drift"] < 1e-8
    assert meta["max_relative_energy_drift"] == max(
        r["relative_energy_drift"] for r in runs)


@pytest.mark.parametrize("flag", ["--t-max", "--dt"])
@pytest.mark.parametrize("value", ["0", "-1.5", "inf", "nan"])
def test_trajectory_nonpositive_time_is_usage_error(tmp_path, capsys, flag,
                                                    value):
    code = main(["trajectory", "--n", "30", "--chi", "1.5", flag, value,
                 "--out", str(tmp_path)])
    assert code == 2
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.glob("trajectory*"))


def test_theta_min_csv(tmp_path):
    out = tmp_path / "tm"
    code = main(["theta-min", "--chi-min", "1.8", "--chi-max", "2.2",
                 "--chi-steps", "5", "--out", str(out)])
    assert code == 0
    lines = read(out / "theta_min.csv").splitlines()
    assert len(lines) == 6
    # the degenerate flag is set exactly at the crossing row chi = 2
    rows = [line.split(",") for line in lines[1:]]
    flags = {float(r[0]): r[-1] for r in rows}
    assert flags[2.0] == "1"
    assert flags[1.8] == "0"
    read_sidecar(out / "theta_min.meta.json", "theta-min")


def test_fields_metadata_counts(tmp_path):
    out = tmp_path / "fl"
    code = main(["fields", "--n", "12", "--chi", "3.0", "--pop-grid", "31",
                 "--phase-grid", "32", "--out", str(out)])
    assert code == 0
    meta = read_sidecar(out / "fields.meta.json", "fields")
    assert meta["husimi_maxima_rel02"] == 3
    assert 0.0 <= meta["phase_circular_variance"] <= 1.0
    husimi_lines = read(out / "husimi.csv").splitlines()
    assert husimi_lines[0] == "i1,i2,q"
    # only valid simplex points are written: fewer than the full grid square
    assert len(husimi_lines) - 1 < 31 * 31


def test_sidecars_record_symmetry_labels_and_gap(tmp_path):
    out = tmp_path / "spec"
    assert main(["spectrum", "--n", "12", "--chi", "3.0", "--k", "4",
                 "--out", str(out)]) == 0
    meta = json.loads(read(out / "spectrum.meta.json"))
    assert meta["labels"][0] == "A1" and len(meta["labels"]) == 4
    assert set(meta["labels"]) <= {"A1", "A2", "E"}
    assert meta["sector_gap"] > 0.0
    assert read(out / "spectrum.csv").splitlines()[0] == "index,energy,residual"
    out = tmp_path / "fields"
    assert main(["fields", "--n", "8", "--chi", "1.0", "--pop-grid", "11",
                 "--phase-grid", "16", "--out", str(out)]) == 0
    meta = json.loads(read(out / "fields.meta.json"))
    assert meta["labels"] == ["A1"] and meta["sector_gap"] > 0.0


@pytest.mark.parametrize("omega", [-1.0, 1.0])
def test_sidecars_carry_no_purity_route(tmp_path, omega):
    """One purity formula serves every (omega, mu), so the scaling and
    purity-scan sidecars name no route; at omega = +1 the scaling runs
    with an A1 (N = 6) and an E-doublet (N = 8) ground level."""
    common = ["--omega", repr(omega), "--out", str(tmp_path)]
    assert main(["scaling", "--n", "6", "8", "--window-min", "0.5",
                 "--window-max", "3.2", *common]) == 0
    meta = read_sidecar(tmp_path / "scaling.meta.json", "scaling")
    assert "purity_route" not in meta and "derivative" not in meta
    assert read(tmp_path / "scaling.csv").splitlines()[0] == "n,chi_cq"
    assert main(["purity-scan", "--n", "6", "--chi-min", "0.0",
                 "--chi-max", "1.0", "--chi-steps", "3", *common]) == 0
    meta = json.loads(read(tmp_path / "purity_N6.meta.json"))
    assert "purity_route" not in meta and "derivative" not in meta
    assert len(meta["ground_sectors"]) == 3
    assert set(meta["ground_sectors"]) <= {"A1", "A2", "E"}
    if omega < 0:
        assert meta["ground_sectors"] == ["A1"] * 3
    assert read(tmp_path / "purity_N6.csv").splitlines()[0] == \
        "chi,purity,dP_dchi"
