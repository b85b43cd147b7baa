import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bagforge
from bagforge import cli, verify
from bagforge.cli import main, parse, read_table


def run_cli(args):
    return main(args)


def test_usage_errors(tmp_path, capsys, monkeypatch):
    # unknown subcommand
    assert run_cli(["frobnicate"]) == 1
    # bag with coupling at the mass gap is rejected
    out = tmp_path / "r"
    code = run_cli(["bag", "--g", "1.2", "--m", "1.0", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "0 < g < m" in err
    # gamma with an under-resolved grid is rejected with the resolution rule
    code = run_cli(["gamma-sweep", "--eps", "0.4,0.2,0.1", "--n", "40",
                    "--r-max", "3.0", "--out", str(out)])
    assert code == 1
    assert "under-resolves" in capsys.readouterr().err
    # a coupling listed twice would write two rows and two profile series
    # of one name: refused before any descent
    solved = []
    monkeypatch.setattr(cli, "minimize", lambda cfg: solved.append(cfg))
    assert run_cli(["soliton", "--g", "10,10.0", "--n", "64",
                    "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: coupling g=10.0 is listed twice"]
    assert not solved and not (tmp_path / "r.csv").exists()
    # an output stem with no file name, or holding a NUL character (which
    # no command line can, but a config file can), is refused by its key
    # before any solve
    nul = tmp_path / "nul.cfg"
    nul.write_text("output.path = a\0b\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for args, stem in [(["--out", ""], "''"), (["--out", "."], "'.'"),
                       (["--out", "/"], "'/'"), (["--out", ".."], "'..'"),
                       (["--config", str(nul)], "'a\\x00b'")]:
        assert run_cli(["mit", *args]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: output.path {stem} must end in "
                                    "a file name and hold no NUL character"]
        assert not any(work.iterdir())


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("""
# cavity run
model.m = 1.0
mit.R = 2.0
output.format = csv
""")
    out = tmp_path / "mit_run"
    code = run_cli(["mit", "--config", str(cfgfile), "--R", "1.0",
                    "--m", "1e-8", "--out", str(out)])
    assert code == 0
    header, rows = read_table(out.with_suffix(".csv"))
    lam = float(rows[0][header.index("lambda")])
    assert abs(lam - 2.0428) < 1e-3          # flag overrode the file R
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["subcommand"] == "mit"
    assert "wall_time_s" in manifest


def test_config_file_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model.mass = 1.0\n")
    assert run_cli(["mit", "--config", str(cfgfile)]) == 1
    assert "model.mass" in capsys.readouterr().err


def test_config_file_key_set_twice(tmp_path, capsys):
    # a key set twice is refused, as a coupling listed twice is, rather
    # than the later line winning
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model.g = 10\n# the retuned coupling\nmodel.g = 11\n")
    out = tmp_path / "s"
    assert run_cli(["soliton", "--config", str(cfgfile), "--n", "64",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cfgfile}:3: config key 'model.g' is set twice, "
        "on lines 1 and 3"]
    assert not out.with_suffix(".csv").exists()


def test_mit_stdout_line(tmp_path, capsys):
    out = tmp_path / "m"
    assert run_cli(["mit", "--m", "1e-8", "--R", "1", "--out", str(out)]) == 0
    assert "lambda = 2.0427" in capsys.readouterr().out


def test_mit_high_level_solves_one_branch(tmp_path, capsys):
    # level k is the root on branch k - 1 of x = kR, found there alone, so
    # the time does not grow with k (a scan from 0 took 18 s at k = 1e5)
    out = tmp_path / "m"
    t0 = time.perf_counter()
    assert run_cli(["mit", "--k", "1000000", "--out", str(out)]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert "k=1000000" in capsys.readouterr().out
    row = read_table(out.with_suffix(".csv"))[1][0]
    R, m, lam = (float(row[i]) for i in (0, 1, 3))
    assert 999999 < R * math.sqrt(lam * lam - m * m) / math.pi < 1000000


def test_soliton_run_and_profiles(tmp_path):
    out = tmp_path / "sol"
    args = ["soliton", "--g", "10", "--kappa", "0.05", "--b", "0.01",
            "--n", "400", "--r-max", "20", "--tol", "1e-5",
            "--out", str(out)]
    assert run_cli(args) == 0
    header, rows = read_table(out.with_suffix(".csv"))
    assert header[:4] == ["g", "m", "N", "k_list"]
    assert float(rows[0][header.index("energy")]) < 1.0
    prof = (tmp_path / "sol_profile.csv").read_text().splitlines()
    assert prof[0] == "series,r,value"
    assert any(ln.startswith("phi_g") for ln in prof[1:])
    assert any(ln.startswith("density_g") for ln in prof[1:])
    # the start field of each descent is solved cold, every trial warm
    telemetry = json.loads((tmp_path / "run.json").read_text())["telemetry"]
    solves = telemetry["eigen_solves"]
    assert sorted(solves) == ["fallback", "full", "resumed"]
    assert solves["full"] == 1 and solves["resumed"] > solves["fallback"]
    # one count of rejected line-search trials per descent
    assert len(telemetry["backtracks"]) == 1
    assert 0 < telemetry["backtracks"][0] < sum(solves.values())


def test_soliton_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "sol"
    args = ["soliton", "--g", "10", "--kappa", "0.05", "--n", "400",
            "--r-max", "20", "--max-iter", "2", "--out", str(out)]
    assert run_cli(args) == 2
    header, rows = read_table(out.with_suffix(".csv"))
    assert rows[0][header.index("converged")] == "false"


def test_bag_and_json_format(tmp_path):
    out = tmp_path / "bag"
    args = ["bag", "--g", "0.8", "--m", "1", "--a", "1e-3", "--b", "1e-3",
            "--N", "1", "--format", "json", "--out", str(out)]
    assert run_cli(args) == 0
    objs = json.loads(out.with_suffix(".json").read_text())
    assert objs[0]["energy"] < 1.0
    assert objs[0]["flagged"] is False


def test_determinism_and_roundtrip(tmp_path):
    texts = []
    for tag in ("one", "two"):
        out = tmp_path / tag / "sol"
        args = ["soliton", "--g", "9,11", "--kappa", "0.05", "--n", "300",
                "--r-max", "18", "--tol", "1e-5", "--seed", "7",
                "--out", str(out)]
        assert run_cli(args) == 0
        texts.append(out.with_suffix(".csv").read_bytes())
    assert texts[0] == texts[1]
    header, rows = read_table(tmp_path / "one" / "sol.csv")
    assert len(rows) == 2 and len(header) == len(rows[0])


def test_mit_limit_run(tmp_path):
    out = tmp_path / "lim"
    args = ["mit-limit", "--m", "1", "--N", "1", "--a", "0.01", "--b", "0.01",
            "--doublings", "4", "--out", str(out)]
    assert run_cli(args) == 0
    header, rows = read_table(out.with_suffix(".csv"))
    assert len(rows) == 4
    gaps = [abs(float(r[header.index("l_n")]) -
                float(r[header.index("l_mit")])) for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_mit_limit_flags_rows_past_the_endpoint_guard(tmp_path):
    # from M ~ 1e8 up the window guard drops the true level and pins R where
    # the band edge takes over; the rows say so, and the exit code stays 0
    out = tmp_path / "lim"
    assert run_cli(["mit-limit", "--masses", "1e6,1e9,1e12",
                    "--out", str(out)]) == 0
    header, rows = read_table(out.with_suffix(".csv"))
    assert header[-1] == "flagged"
    assert [r[-1] for r in rows] == ["false", "true", "true"]


def test_parse_defaults():
    params = parse(["mit"])
    assert params["mit.R"] == 1.0


def test_config_coupling_list(tmp_path):
    # model.g is a comma list, in a config file as on the command line
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model.g = 9,11\n")
    params = parse(["soliton", "--config", str(cfgfile)])
    assert params["model.g"] == "9,11"
    assert parse(["soliton", "--g", "9,11"])["model.g"] == "9,11"


@pytest.mark.parametrize("args", [["bag", "--n", "5"], ["mit", "--r-max", "3"],
                                  ["verify", "--n", "10"],
                                  # the same key as a config-file line
                                  ["bag", "grid.n = 5"]])
def test_grid_flags_only_on_field_solvers(tmp_path, capsys, args):
    if "=" in args[-1]:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(args[-1] + "\n")
        args = [args[0], "--config", str(cfgfile)]
    assert run_cli(args + ["--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("flags, cfg_text", [
    (["--mode", "scf"], ""), (["--mixing", "0.5"], ""), (["--jobs", "2"], ""),
    ([], "run.jobs = 2\n")])
def test_removed_options_rejected(tmp_path, capsys, flags, cfg_text):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfg_text)
    args = ["soliton", "--config", str(cfgfile), *flags,
            "--out", str(tmp_path / "s")]
    assert run_cli(args) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("args", [["bag", "--a", "nan"],
                                  ["soliton", "--b", "nan"],
                                  ["gamma-sweep", "--eps", "nan"],
                                  ["gamma-sweep", "--tol", "nan"],
                                  ["gamma-sweep", "--r-max", "inf"],
                                  ["gamma-sweep", "--g", "nan"],
                                  ["soliton", "--r-max", "inf"],
                                  ["bag", "--r-lo", "1", "--r-hi", "inf"],
                                  ["mit", "--m", "nan"],
                                  ["mit", "--R", "inf"],
                                  ["mit-limit", "--masses", "2,inf"]])
def test_nonfinite_input_rejected(tmp_path, capsys, args):
    assert run_cli(args + ["--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "finite" in err[0]
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("args", [
    ["soliton", "--n", "64", "--r-max", r_max]
    for r_max in ("5e-324", "1e-300", "1e-120", "1e120", "1e300")]
    + [["gamma-sweep", "--n", "640", "--r-max", "1e300"]])
def test_mesh_outside_double_range_rejected(tmp_path, capsys, args):
    # volume weights that underflow (h^3/4 below the smallest normal double)
    # or overflow (h r_max^2): one mesh rule refuses them, naming r_max and n
    assert run_cli(args + ["--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"r_max={float(args[-1])!r} with n={args[2]} cells" in err[0]
    assert not (tmp_path / "r.csv").exists()


#: inputs refused with a message of their own: masses the bag
#: configuration refuses, each naming the mass itself rather than the
#: coupling rule (mit-limit takes no coupling) or the default radius
#: interval (100/m overflows), and a coupling list of no values
_MESSAGES = {
    "mit-limit --m 0": "error: mass m must be positive",
    "bag --m 1e-310 --g 5e-311": "mass m=1e-310 is too small",
    "mit-limit --m 1e-320 --doublings 3": "mass m=1e-320 is too small",
    "gamma-sweep --m 1e-320 --g 5e-321": "mass m=1e-320 is too small",
    "soliton --g ,": "error: need at least one coupling value"}


@pytest.mark.parametrize("args", [["gamma-sweep", "--n", "0"],
                                  ["gamma-sweep", "--tol", "-1"],
                                  ["mit-limit", "--doublings", "0"],
                                  ["mit-limit", "--doublings", "-2"],
                                  ["soliton", "--max-iter", "0"],
                                  ["soliton", "--max-iter", "-5"],
                                  ["gamma-sweep", "--max-iter", "0"],
                                  ["mit-limit", "--masses", ","],
                                  # 2^2000 is no double
                                  ["mit-limit", "--doublings", "2000"],
                                  *map(str.split, _MESSAGES)])
def test_out_of_range_input_rejected(tmp_path, capsys, args):
    assert run_cli(args + ["--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert _MESSAGES.get(" ".join(args), "") in err[0]
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("args", [["bag", "--m", "1", "--g", "1e-17"],
                                  ["gamma-sweep", "--g", "1e-300"]],
                         ids=["bag", "gamma-sweep"])
def test_coupling_below_the_mass_resolution_rejected(tmp_path, capsys, args):
    # m - g == m in floating point: the message names the coupling and the
    # mass, not the two-zone problem's internal masses
    assert run_cli(args + ["--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    m = "1.0" if args[0] == "bag" else "8.0"
    assert f"g={float(args[-1])!r}" in err[0] and f"m={m}" in err[0]
    assert "mu_" not in err[0]
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("g, what", [
    # the start gradient's norm overflows, and a step along it would take
    # g * phi past double range
    ("1e200", "gradient norm inf"),
    # the start well m/g squares past double range
    ("1e-300", "energy inf"),
    ("1e-100", "energy inf"),
    # every trial of the first line search overflows
    ("1e150", "no line-search trial has finite energy"),
    # m/g overflows, so the start well itself is not finite
    ("1e-320", "the start field has non-finite samples")])
def test_descent_out_of_double_range_exits_2(tmp_path, capsys, g, what):
    code = run_cli(["soliton", "--g", g, "--n", "64",
                    "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"coupling g={float(g)!r}" in err[0]
    assert "iteration 1:" in err[0] and what in err[0]
    # no row is written, so none holds a non-finite value
    assert not (tmp_path / "r.csv").exists()


def test_coupling_list_keeps_the_rows_it_solved(tmp_path, capsys):
    # g = 10 converges and g = 1e-300 leaves double range: the solved
    # coupling's row and profiles are written as a run of it alone writes
    # them, and the failure's message is the one error line
    alone, both = tmp_path / "alone", tmp_path / "both"
    alone.mkdir()
    both.mkdir()
    assert run_cli(["soliton", "--g", "10", "--n", "64",
                    "--out", str(alone / "r")]) == 0
    capsys.readouterr()
    assert run_cli(["soliton", "--g", "10,1e-300", "--n", "64",
                    "--out", str(both / "r")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "g=1e-300 left double range" in err[0]
    for name in ("r.csv", "r_profile.csv"):
        assert (both / name).read_bytes() == (alone / name).read_bytes()
    # telemetry of the solved coupling alone
    tel = [json.loads((d / "run.json").read_text())["telemetry"]
           for d in (alone, both)]
    assert tel[0] == tel[1]


def test_coupling_list_is_checked_before_any_solve(tmp_path, capsys,
                                                   monkeypatch):
    solved = []
    monkeypatch.setattr(cli, "minimize", lambda cfg: solved.append(cfg))
    assert run_cli(["soliton", "--g", "10,-1",
                    "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "coupling g must be positive" in err[0]
    assert not solved and not (tmp_path / "r.csv").exists()


def test_negative_cavity_mass_rejected(tmp_path, capsys):
    assert run_cli(["mit", "--m", "-1", "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "m.csv").exists()


def run_entry_point(args):
    # the real entry point, so warnings and tracebacks would show on stderr;
    # the other one-line error tests call `main` in this process, where
    # their "error" warning filter fails them on any warning, as an
    # exception escaping `main` does
    src = str(Path(bagforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "bagforge.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_solver_failure_is_one_line(tmp_path):
    # the cavity root scan overflows at a vanishing radius
    proc = run_entry_point(["mit", "--R", "1e-300",
                            "--out", str(tmp_path / "m")])
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, names", [
    # x = kR beyond ~1e16, where consecutive brackets of the root scan
    # coincide in floating point
    (["bag", "--r-lo", "1e299", "--r-hi", "1e300"], ["cannot separate"]),
    # lam_lo**2 of the bound-state window, and R**2 of the bag energy over
    # the default interval up to 1e2/m, leave double range
    (["mit-limit", "--masses", "1e200"], ["mit-limit", "overflow"]),
    (["bag", "--g", "1e-200", "--m", "2e-200"], ["bag", "overflow"]),
    # the two-zone normalization integral, of order R^3, underflows to 0
    # at radii near 1e-150 and 1e-120
    (["bag", "--m", "1e150", "--g", "5e149"], ["normalization"]),
    (["mit-limit", "--m", "1e120", "--masses", "4e120,8e120"],
     ["normalization"])])
@pytest.mark.filterwarnings("error")
def test_unrepresentable_solve_is_one_line(tmp_path, capsys, args, names):
    assert main(args + ["--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert all(name in err[0] for name in names)
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("args, names", [
    (["soliton", "--max-iter", "3"],
     ["g=10.0", "after 3 iterations", "gradient norm"]),
    (["gamma-sweep", "--max-iter", "3"],
     ["eps=0.4", "after 3 iterations", "gradient norm"]),
    (["bag", "--g", "0.99", "--a", "1", "--b", "1"],
     ["R=0.01", "[0.01, 100]"]),
    # no seed is known to fail the battery, so its Hellmann-Feynman check
    # is made to fail, which a patch does only in this process
    (["verify", "--seed", "0"], ["hellmann-feynman"]),
    # the reference bag hugs the lower end of its radius interval
    (["gamma-sweep", "--kappa", "100"],
     ["reference bag radius R=0.00125 is not an interior optimum",
      "[0.00125, 12.5]"])])
@pytest.mark.filterwarnings("error")
def test_flagged_run_is_one_line(tmp_path, capsys, monkeypatch, args, names):
    # the result table is written, then one line says what failed
    if args[0] == "verify":
        monkeypatch.setattr(verify, "hf_mismatch", lambda *_: 1.0)
    assert main(args + ["--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert all(name in err[0] for name in names)
    assert (tmp_path / "r.csv").exists()


@pytest.mark.filterwarnings("error")
def test_too_large_problem_is_one_line(tmp_path, capsys):
    # numpy refuses a 10**12-node grid before allocating anything
    assert main(["soliton", "--n", str(10**12),
                 "--out", str(tmp_path / "r")]) == 1
    stderr = capsys.readouterr().err
    err = stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: soliton:")
    assert "not enough memory" in err[0]
    assert "Traceback" not in stderr
    assert not (tmp_path / "r.csv").exists()


def test_io_error_exit_code(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("")      # a file where a directory is needed
    code = run_cli(["mit", "--out", str(target / "x" / "y")])
    assert code == 3


def test_verify_subcommand(tmp_path, capsys):
    out = tmp_path / "v"
    assert run_cli(["verify", "--seed", "0", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "susy-pairing" in text and "PASS" in text and "FAIL" not in text
    header, rows = read_table(out.with_suffix(".csv"))
    assert all(r[header.index("passed")] == "true" for r in rows)


def test_negative_seed_names_the_seed(tmp_path, capsys):
    with pytest.raises(ValueError, match="seed=-1"):
        verify.run_battery(seed=-1)
    assert run_cli(["verify", "--seed", "-1",
                    "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: seed must be non-negative, got seed=-1"]


def test_gamma_sweep_run(tmp_path):
    out = tmp_path / "gam"
    args = ["gamma-sweep", "--m", "8", "--g", "6.8", "--kappa", "1",
            "--b", "0.02", "--eps", "0.4,0.2", "--r-max", "3.0", "--n", "320",
            "--out", str(out)]
    assert run_cli(args) == 0
    header, rows = read_table(out.with_suffix(".csv"))
    assert header == ["eps", "l_s_eps", "l_c_ref", "interface_width",
                      "l2_dist_to_char", "equipartition_ratio"]
    assert len(rows) == 2
    gaps = [abs(float(r[1]) - float(r[2])) for r in rows]
    assert gaps[1] < gaps[0]
    prof = (tmp_path / "gam_profile.csv").read_text().splitlines()
    assert any(ln.startswith("phi_eps0.2") for ln in prof)
    # one cold solve starts the first width's descent; each later width
    # starts from the ladder the previous one ended on
    telemetry = json.loads((tmp_path / "run.json").read_text())["telemetry"]
    solves = telemetry["eigen_solves"]
    assert solves["full"] == 1 and solves["resumed"] > solves["fallback"]
    # one count of rejected line-search trials per width
    assert len(telemetry["backtracks"]) == 2
    assert all(b > 0 for b in telemetry["backtracks"])


def accepted(sub):
    """The config keys a subcommand accepts, with their defaults."""
    return {**cli._COMMON, **cli._SUBCOMMANDS[sub][2]}


# every (subcommand, config key) pair of the option table, with its default
SETTABLE = [pytest.param(sub, key, default, id=f"{sub}-{key}")
            for sub in cli._SUBCOMMANDS
            for key, default in accepted(sub).items()]


def _valid_text(key, default):
    if key == "output.format":
        return "json"
    if isinstance(default, float):
        return "2.5"
    if isinstance(default, int):
        return "7"
    return "3,4"          # comma lists and the output stem stay text


def _flag_and_config(tmp_path, sub, key, text):
    """The same setting given as a flag and as a config-file line."""
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {text}\n")
    return ([sub, cli._OPTIONS[key][0], text],
            [sub, "--config", str(cfgfile)])


@pytest.mark.parametrize("sub, key, default", SETTABLE)
def test_flag_and_config_parse_alike(tmp_path, sub, key, default):
    by_flag, by_config = (parse(args) for args in _flag_and_config(
        tmp_path, sub, key, _valid_text(key, default)))
    assert by_flag[key] == by_config[key] != default
    assert type(by_flag[key]) is type(by_config[key]) is type(default)


def _allowed(sub, key, default):
    """What the error line of an invalid value has to name."""
    if key == "output.format":
        return "choose from 'csv', 'json'"
    # only soliton sweeps a comma list of couplings; the others take one
    if isinstance(default, float) or (key == "model.g" and sub != "soliton"):
        return "expected a number"
    if isinstance(default, int):
        return "expected an integer"
    return "comma-separated"


@pytest.mark.parametrize("sub, key, default",
                         [c for c in SETTABLE if c.values[1] != "output.path"])
def test_flag_and_config_reject_alike(tmp_path, capsys, sub, key, default):
    bad = "xml" if key == "output.format" else "abc"
    for args in _flag_and_config(tmp_path, sub, key, bad):
        assert main(args + ["--out", str(tmp_path / "out" / "r")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert _allowed(sub, key, default) in err[0] and repr(bad) in err[0]
        assert not (tmp_path / "out").exists()


def test_invalid_config_file_exits_1_with_one_line(tmp_path, capsys):
    # a file of valid lines plus one defect: a repeated key, an unknown key,
    # a line without `=`, an empty value, a value of the wrong type or a
    # comment holding a byte that is not UTF-8 (surrogate-escaped here)
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    word = st.text(alphabet="xyz._", min_size=1)    # neither key nor number

    @st.composite
    def invalid_file(draw):
        sub = draw(st.sampled_from(list(cli._SUBCOMMANDS)))
        keys = [k for k in accepted(sub) if k != "output.path"]
        typed = [k for k in keys if cli._OPTIONS[k][1] is not str]
        picked = draw(st.lists(st.sampled_from(keys), unique=True, max_size=4))
        lines = [f"{k} = {_valid_text(k, accepted(sub)[k])}" for k in picked]
        defect = draw(st.one_of(
            st.sampled_from(lines) if lines else st.nothing(),
            word.filter(lambda k: k not in cli._OPTIONS).map("{} = 1".format),
            word,
            st.sampled_from(keys).map("{} =".format),
            st.tuples(st.sampled_from(typed), word).map(" = ".join),
            word.map("# {}\udcff".format),
        ))
        lines.insert(draw(st.integers(0, len(lines))), defect)
        return sub, "\n".join(lines) + "\n"

    @hyp.settings(derandomize=True, max_examples=40, deadline=None)
    @hyp.given(invalid_file())
    def check(case):
        sub, text = case
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main([sub, "--config", str(cfgfile),
                     "--out", str(tmp_path / "out" / "r")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "out").exists()

    check()


def test_invalid_flags_exit_1_with_one_line(tmp_path, capsys):
    # valid flags plus one defect: an unknown flag, a flag of another
    # subcommand, a flag without its value or a mistyped value
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    word = st.text(alphabet="xyz._", min_size=1)    # neither flag nor number

    @st.composite
    def invalid_argv(draw):
        sub = draw(st.sampled_from(list(cli._SUBCOMMANDS)))
        keys = [k for k in accepted(sub) if k != "output.path"]
        typed = [k for k in keys if cli._OPTIONS[k][1] is not str]
        flags = [cli._OPTIONS[k][0] for k in accepted(sub)] + ["--config",
                                                                "--help"]
        # argparse takes a prefix of one of the flags for that flag
        foreign = sorted({flag for flag, _, _ in cli._OPTIONS.values()
                          if not any(f.startswith(flag) for f in flags)})
        picked = draw(st.lists(st.sampled_from(keys), unique=True, max_size=4))
        pairs = [[cli._OPTIONS[k][0], _valid_text(k, accepted(sub)[k])]
                 for k in picked]
        defect = draw(st.one_of(
            word.map(lambda w: ["--" + w]),
            st.tuples(st.sampled_from(foreign), st.sampled_from(["7", "2.5"]))
            .map(list),
            st.sampled_from(keys).map(lambda k: [cli._OPTIONS[k][0]]),
            st.tuples(st.sampled_from(typed).map(lambda k: cli._OPTIONS[k][0]),
                      word).map(list),
        ))
        pairs.insert(draw(st.integers(0, len(pairs))), defect)
        return [sub, *(s for pair in pairs for s in pair)]

    @hyp.settings(derandomize=True, max_examples=40, deadline=None)
    @hyp.given(invalid_argv())
    def check(argv):
        assert main(argv + ["--out", str(tmp_path / "out" / "r")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "out").exists()

    check()


def readme_commands():
    """Every `bagforge ...` line of README's "Command line" block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("bagforge ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert [c[0] for c in commands] == list(cli._SUBCOMMANDS)
    for argv in commands:
        assert parse(argv)["subcommand"] == argv[0]


#: README `bag` result table, as written when the cavity states were
#: normalized by adaptive quadrature
README_BAG_CSV = (
    "N,g,m,a,b,k,R_opt,lambda,energy,curvature_residual,flagged\n"
    "1,0.8,1.0,0.001,0.001,1,2.75185397850765,0.7066969195998102,"
    "0.8891483329285179,3.133127438048611e-14,false\n")


def test_no_readme_command_loads_quadrature_module(tmp_path):
    # the library normalizes in closed form: no command imports
    # scipy.integrate, about a third of `import bagforge.cli`
    runs = readme_commands()
    script = ("import json, sys\n"
              "from bagforge.cli import main\n"
              "seen = []\n"
              "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
              "    code = main(argv + ['--out', sys.argv[2] + str(i)])\n"
              "    seen.append([code, 'scipy.integrate' in sys.modules])\n"
              "print(json.dumps(seen))\n")
    src = str(Path(bagforge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs), str(tmp_path / "r")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == [[0, False]] * len(cli._SUBCOMMANDS)
    bag = [argv[0] for argv in runs].index("bag")
    assert (tmp_path / f"r{bag}.csv").read_text() == README_BAG_CSV


@pytest.mark.parametrize("sub", list(cli._SUBCOMMANDS))
def test_help_lists_every_key(capsys, sub):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for key in accepted(sub):
        assert f"{cli._OPTIONS[key][0]} {key}" in text
