import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latgas
from latgas import acceptance, cli, series
from latgas.cli import main
from latgas.model import LatticeSpec, PotentialSpec
from latgas.oracle import exact_canonical_table, grand_canonical_eval, transfer_matrix_table
from latgas.series import beta1_closed_form, extract_b_lambda


def write_cfg(tmp_path, data):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    return str(p)


def test_oracle_command_matches_example(tmp_path):
    cfg = write_cfg(tmp_path, {"dimension": 1, "side": 2, "beta": 0.3,
                               "boundary": "zero", "mu": -1.0})
    rc = main(["oracle", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "canonical_table.csv").read_text().splitlines()
    # exact bytes: 17 significant digits, integers as their digits
    assert lines == ["N,logZ", "0,0", "1,0.69314718055994529", "2,1.2"]
    probs = (tmp_path / "probabilities.csv").read_text().splitlines()
    assert probs[0] == "N,prob"
    gc = grand_canonical_eval(exact_canonical_table(LatticeSpec(1, 2, "zero"), PotentialSpec(),
                                                    0.3), -1.0)
    assert [float(line.split(",")[1]) for line in probs[1:]] == gc.probs.tolist()


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, {"dimension": 1, "side": 6, "beta": 0.25,
                               "boundary": "periodic"})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["oracle", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["oracle", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "canonical_table.csv").read_bytes() == \
        (out2 / "canonical_table.csv").read_bytes()


def test_config_error_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, {"side": 4, "beta": 0.1})  # missing dimension
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg2 = write_cfg(tmp_path, {"dimension": 1, "side": 4, "beta": 0.1,
                                "boundary": "diagonal"})
    assert main(["oracle", "--config", cfg2, "--out", str(tmp_path)]) == 2
    assert main(["oracle", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_guard_violation_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, {"dimension": 2, "side": 6, "beta": 0.1})
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("command, extra", [
    ("oracle", {"beta": 0.5, "mu": 1e308}),
    ("correlate", {"beta": 1e300, "particles": 6}),
    ("oracle", {"side": 100, "boundary": "zero", "beta": 1e306, "mu": -1,
                "potential": {"kind": "kac", "range": 3}})])
def test_float_range_exits_as_a_guard(tmp_path, command, extra):
    # unguarded, oracle writes nan into probabilities.csv with exit 0, and
    # correlate exits 5 on an OverflowError from the correlation bound; and
    # with its write before the guard, oracle leaves canonical_table.csv.
    # The Kac chain wrote 88 inf cells of log Z(N) and 88 nan probabilities
    cfg = write_cfg(tmp_path, {"dimension": 1, "side": 12, "boundary": "periodic", **extra})
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert not any(out.iterdir())


def test_fixed_wall_past_the_enumeration_guard_exits_as_a_guard(tmp_path):
    # 30 sites are past the 24-site enumeration guard, and the transfer
    # matrix serves zero and periodic walls only; this exited 2, as though
    # the config were malformed
    cfg = write_cfg(tmp_path, {"dimension": 1, "side": 30, "beta": 0.2,
                               "boundary": "fixed:[[-1]]"})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 3
    assert not any(out.iterdir())


def test_deviate_default_mu0_past_the_float_range_names_its_cause(tmp_path, capsys):
    # at 0 < beta < ~1e-307, -1/beta leaves the float range, so the default
    # mu0 = M_LG - 1 is -inf though beta is not 0
    cfg = write_cfg(tmp_path, {"dimension": 1, "side": 8, "boundary": "periodic",
                               "beta": 5e-324})
    assert main(["deviate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "key 'mu0' required: its default M_LG - 1 is not finite at beta = 5e-324" in err
    assert "beta = 0 (threshold sentinel)" not in err


def test_series_command_schema(tmp_path):
    cfg = write_cfg(tmp_path, {"dimension": 1, "side": 8, "beta": 0.2,
                               "boundary": "periodic", "order": 3})
    assert main(["series", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert lines[0] == "n,b_n,beta_n,B_Lambda_n,F_coeff"
    assert len(lines) == 4


def test_correlate_command(tmp_path):
    cfg = write_cfg(tmp_path, {"dimension": 1, "side": 10, "beta": 0.1,
                               "boundary": "periodic", "particles": 2})
    assert main(["correlate", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "correlation_bound.csv").read_text().splitlines()
    assert lines[0] == "q1,q2,dist,u2_exact,rhs,feasible"
    assert len(lines) == 1 + 100  # every ordered pair of the 10 sites
    assert all(line.endswith(",1") for line in lines[1:])


def test_deviate_command(tmp_path):
    cfg = write_cfg(tmp_path, {"dimension": 1, "side": 32, "beta": 0.0258,
                               "boundary": "zero", "alphas": [0.5],
                               "us": [0.0, 0.5]})
    assert main(["deviate", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "deviations.csv").read_text().splitlines()
    assert lines[0].startswith("L,mu0,alpha,u,")
    assert len(lines) == 3


@pytest.mark.parametrize("config", [
    *({"dimension": 1, "side": side, "beta": beta}
      for side in (64, 256, 1024) for beta in (0.02, 0.08, 0.15)),
    {"dimension": 1, "side": 256, "boundary": "periodic", "beta": 0.3}])
def test_deviate_defaults_stay_under_the_density_cap(tmp_path, config):
    # model keys only: the default mu0, alphas and us
    assert main(["deviate", "--config", write_cfg(tmp_path, config),
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "deviations.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["alpha"], r["u"]) for r in rows] == [
        (a, u) for a in ("0.5", "1") for u in ("0", "0.050000000000000003")]
    for r in rows:  # E, the error envelope, is nan by design at alpha = 1
        assert all(math.isfinite(float(v)) for k, v in r.items() if k != "E")
        assert math.isnan(float(r["E"])) == (r["alpha"] == "1")


@pytest.mark.parametrize("command, key", [("oracle", "beta"), ("oracle", "mu"),
                                          ("deviate", "mu0"), ("oracle", "coupling"),
                                          ("correlate", "c_const"), ("correlate", "c1_const")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_config_numbers_are_config_errors(tmp_path, capsys, command, key, value):
    cfg = {"dimension": 1, "side": 8, "beta": 0.2, "boundary": "periodic", "particles": 2,
           "c_const": 1.0, "c1_const": 1.0, key: value}
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert f"key '{key}'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("key", ["dimension", "beta"])
def test_boolean_config_numbers_are_config_errors(tmp_path, key):
    cfg = {"dimension": 1, "side": 8, "beta": 0.1, key: True}
    assert main(["series", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, key, cfg", [
    ("series", "order", {"order": 2.7}), ("series", "order", {"order": True}),
    ("series", "particles", {"particles": 3.5}), ("series", "particles", {"particles": True}),
    ("deviate", "order", {"side": 32, "beta": 0.0258, "alphas": [0.5], "us": [0.0],
                          "order": 3.0}),
    ("oracle", "potential.range", {"potential": {"kind": "kac", "range": 2.5}}),
    ("oracle", "potential.range", {"potential": {"kind": "kac", "range": True}}),
    ("radii", "beta_grid.count", {"beta_grid": {"start": 0.0, "stop": 1.0, "count": 5.5}}),
    ("radii", "beta_grid.count", {"beta_grid": {"start": 0.0, "stop": 1.0, "count": True}}),
    ("radii", "pairs", {"beta_grid": {"start": 0.0, "stop": 1.0, "count": 5},
                        "pairs": [[1.5, 1.0]]}),
    ("radii", "pairs", {"beta_grid": {"start": 0.0, "stop": 1.0, "count": 5},
                        "pairs": [[True, 1.0]]}),
    ("oracle", "boundary", {"side": 4, "boundary": "fixed:[[-1.7],[4]]"}),
    ("oracle", "boundary", {"side": 4, "boundary": "fixed:[[true],[4]]"})])
def test_integer_config_keys_take_only_integers(tmp_path, capsys, command, key, cfg):
    # int() would truncate 2.7 to 2 and read true as 1
    cfg = {"dimension": 1, "side": 8, "beta": 0.1, **cfg}
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert f"key '{key}'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, key, cfg", [
    ("correlate", "c1_const", {"particles": 2, "c_const": 1.0}),
    ("correlate", "c_const", {"particles": 2, "c1_const": 1.0}),
    ("series", "particles", {"particles": -5}), ("series", "particles", {"particles": 0}),
    ("series", "particles", {"particles": 11}), ("series", "particles", {"particles": 500}),
    ("deviate", "order", {"order": 0}), ("deviate", "order", {"order": -3}),
    ("deviate", "order", {"order": 10}), ("deviate", "order", {"order": 500})])
def test_config_keys_that_would_be_ignored_are_config_errors(tmp_path, capsys, command, key,
                                                             cfg):
    # a lone c_const or c1_const would be dropped while both constants are
    # calibrated, an N outside [1, |Lambda|] would write F_coeff from an
    # undefined P_{N,|Lambda|}, and a deviate order outside [1, |Lambda|-1]
    # failed without naming the key, or only once its table was built
    cfg = {"dimension": 1, "side": 10, "beta": 0.2, "boundary": "periodic", **cfg}
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("cfg", [{"potential": {"kind": "standard", "range": 2}},
                                 {"coupling": 2.0, "potential": {"kind": "kac", "range": 3}}])
def test_potential_keys_the_model_cannot_take_are_config_errors(tmp_path, capsys, cfg):
    # the standard potential has range 1 and the Kac potential coupling 1:
    # dropping either key would write a table of another model than asked for
    cfg = {"dimension": 1, "side": 8, "beta": 0.1, **cfg}
    assert main(["oracle", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("key, entries", [
    ("alphas", {"alphas": [True], "us": [0.05]}), ("alphas", {"alphas": 0.5}),
    ("us", {"alphas": [0.5], "us": ["0.05"]}), ("us", {"alphas": [0.5], "us": [math.nan]}),
    ("us", {"us": []})])
def test_deviate_list_entries_are_finite_reals(tmp_path, capsys, key, entries):
    # float() would read true as alpha = 1 and "0.05" as u = 0.05, a nan u
    # failed deep in the deviation formula without naming the key, and an
    # empty list wrote a CSV of headers only
    cfg = {"dimension": 1, "side": 32, "beta": 0.0258, **entries}
    assert main(["deviate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert f"key '{key}'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_import_loads_neither_scipy_nor_mpmath():
    src = str(Path(latgas.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, latgas.cli; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "latgas.cli" in loaded
    assert not [m for m in loaded if m.split(".")[0] in ("scipy", "mpmath")]


def test_radii_command_figure_files(tmp_path):
    cfg = write_cfg(tmp_path, {"beta_grid": {"start": 0.0, "stop": 1.0,
                                             "count": 5}})
    assert main(["radii", "--config", cfg, "--out", str(tmp_path),
                 "--threads", "2"]) == 0
    for name in ("radii_d1_J1.csv", "radii_d2_J1.csv", "radii_d3_J1.csv",
                 "radii_d1_J2.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "beta,R_C,R_C_bar,M_IS,M_LG,R_V,a_star_RC,a_star_RCbar"
        assert len(lines) == 6
        assert all(len(line.split(",")) == 8 for line in lines)
    # --threads is accepted and has no effect
    single = tmp_path / "single"
    assert main(["radii", "--config", cfg, "--out", str(single)]) == 0
    assert (single / "radii_d1_J1.csv").read_bytes() == \
        (tmp_path / "radii_d1_J1.csv").read_bytes()


def test_radii_past_float_range_exits_zero(tmp_path):
    # e^{-beta B} underflows and e^{2 beta B} overflows on both grids; at
    # beta = 200 the Penrose constant C overflows too
    for grid in ({"start": 100, "stop": 140, "count": 5},
                 {"start": 200, "stop": 200, "count": 1}):
        cfg = write_cfg(tmp_path, {"beta_grid": grid, "pairs": [[1, 1.0]]})
        assert main(["radii", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "radii_d1_J1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == grid["count"]
        assert all(math.isfinite(float(v)) for row in rows for v in row.values())
        for row in rows:
            beta = float(row["beta"])
            assert float(row["R_C"]) == float(row["R_C_bar"]) == float(row["R_V"]) == 0.0
            # M_LG = -(beta B + 1 + log C-bar)/beta, and C-bar = 3 to the last bit
            assert float(row["M_LG"]) == pytest.approx(-(8 * beta + 1 + math.log(3)) / beta,
                                                       rel=1e-14)


def test_radii_rejects_empty_grid(tmp_path):
    cfg = write_cfg(tmp_path, {"beta_grid": {"start": 0.0, "stop": 1.0,
                                             "count": 0}})
    assert main(["radii", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_accept_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [("always passes", lambda: (True, "ok"), 60.0)])
    assert main(["accept", "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [("always fails", lambda: (False, "bad"), 60.0)])
    assert main(["accept", "--out", str(tmp_path)]) == 4
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_series_uses_transfer_matrix_past_enumeration_guard(tmp_path):
    pot, beta = PotentialSpec(), 0.3
    cfg = write_cfg(tmp_path, {"dimension": 1, "side": 40, "beta": beta,
                               "boundary": "periodic"})
    assert main(["series", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "series.csv", newline="") as fh:
        first = next(csv.DictReader(fh))
    assert float(first["beta_n"]) == beta1_closed_form(1, pot, beta)
    table = transfer_matrix_table(40, pot, beta, "periodic")
    assert first["B_Lambda_n"] == format(extract_b_lambda(table, 4).coeffs[1], ".17g")


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    def overflow(cfg):
        raise OverflowError("math range error")
    monkeypatch.setitem(cli.COMMANDS, "oracle", overflow)
    assert main(["oracle", "--out", str(tmp_path)]) == 5
    assert "numerical failure: math range error" in capsys.readouterr().err


def test_cold_torus_correlate_exits_zero(tmp_path):
    # beta = 25 once overflowed the float correlation weights
    cfg = write_cfg(tmp_path, {"dimension": 2, "side": 4, "boundary": "periodic",
                               "beta": 25.0, "particles": 8})
    assert main(["correlate", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "correlation_bound.csv", newline="") as fh:
        assert all(math.isfinite(float(r["u2_exact"])) for r in csv.DictReader(fh))


@pytest.mark.parametrize("config", [
    {"dimension": 1, "side": 12, "beta": 1000.0},
    {"dimension": 2, "side": 3, "beta": 200.0, "order": 4}])
def test_series_past_float_range_exits_as_a_guard(tmp_path, capsys, config):
    # the Mayer weight f = e^{4 beta} is past the float range; unguarded, the
    # coefficients rounded to +-inf and series.csv held inf and -inf with exit 0
    cfg = write_cfg(tmp_path, {"boundary": "periodic", **config})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["series", "--config", cfg, "--out", str(out)]) == 3
    assert "float range" in capsys.readouterr().err
    assert not any(out.iterdir())


_MODEL = {"dimension": 1, "side": 8, "beta": 0.2}


@pytest.mark.parametrize("command, key, cfg", [
    ("oracle", "partcles", {**_MODEL, "partcles": 3}),
    ("oracle", "method", {**_MODEL, "method": "enumeration"}),
    ("series", "mu", {**_MODEL, "mu": -1.0}),
    ("correlate", "order", {**_MODEL, "particles": 2, "order": 3}),
    ("deviate", "alpha", {**_MODEL, "alpha": [0.5]}),
    ("radii", "side", {"side": 8}),
    ("accept", "beta", {"beta": 0.2})])
def test_unknown_config_keys_are_config_errors(tmp_path, capsys, command, key, cfg):
    # unguarded, a misspelt or misplaced key was ignored and its default ran
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def _documented_sentinel(name: str, row: dict, column: str, value: float) -> bool:
    """The non-finite cells README documents: radii M_IS and M_LG are -inf at
    beta = 0 and below beta ~ 1e-307, where -1/beta leaves the float range;
    deviate's E is nan at alpha = 1; and series b_n and beta_n are nan past
    the orders their cluster sums are guarded to."""
    if name.startswith("radii_") and column in ("M_IS", "M_LG"):
        return value == -math.inf and float(row["beta"]) < 1e-307
    if name == "deviations.csv" and column == "E":
        return math.isnan(value) and float(row["alpha"]) == 1.0
    if name == "series.csv" and column in ("b_n", "beta_n"):
        cap = series.MAX_B_ORDER if column == "b_n" else series.MAX_BETA_IRR_ORDER
        return math.isnan(value) and int(row["n"]) > cap
    return False


_BETAS = st.sampled_from([0.0, 5e-324, 0.3, 25.0, 177.0, 200.0, 1e300]) | st.floats(0.0, 1e300)
_REALS = st.sampled_from([0.0, -1e308, 1e308]) | st.floats(-1e308, 1e308)


@st.composite
def _cli_runs(draw):
    """A command and a config over the guarded space: beta in [0, 1e300],
    mu and mu0 up to +-1e308, both potentials, every wall, small boxes."""
    command = draw(st.sampled_from(["radii", "oracle", "series", "correlate", "deviate"]))
    if command == "radii":
        grid = {"start": draw(_BETAS), "stop": draw(_BETAS), "count": draw(st.integers(1, 3))}
        return command, {"beta_grid": grid, "pairs": [[draw(st.integers(1, 3)),
                                                        draw(st.sampled_from([0.5, 1.0, 2.0]))]]}
    d = draw(st.integers(1, 2))
    side = draw(st.integers(2, 12) if d == 1 else st.integers(2, 3))
    n_sites = side ** d
    wall = "fixed:[[-1]]" if d == 1 else "fixed:[[-1,0]]"
    cfg = {"dimension": d, "side": side, "beta": draw(_BETAS),
           "boundary": draw(st.sampled_from(["zero", "periodic", "fixed:[]", wall]))}
    if draw(st.booleans()):
        cfg["potential"] = {"kind": "kac", "range": draw(st.integers(1, 3))}
    elif draw(st.booleans()):
        cfg["coupling"] = draw(st.sampled_from([0.5, 2.0]))
    if command == "oracle" and draw(st.booleans()):
        cfg["mu"] = draw(_REALS)
    if command in ("series", "deviate"):
        cfg["order"] = draw(st.integers(1, min(6, n_sites - 1) if n_sites > 2 else 1))
    if command == "series":
        cfg["particles"] = draw(st.integers(1, n_sites))
    if command == "correlate":
        cfg["particles"] = draw(st.integers(2, n_sites))
    if command == "deviate":
        cfg.update(alphas=[draw(st.sampled_from([0.5, 0.75, 1.0]))],
                   us=[draw(st.sampled_from([0.0, 0.05]))])
        if cfg["beta"] == 0.0 or draw(st.booleans()):
            cfg["mu0"] = draw(_REALS)
    return command, cfg


@settings(max_examples=100, deadline=None)
@given(run=_cli_runs())
def test_cli_contract_over_the_guarded_space(run):
    # a command succeeds with finite cells, or fails with a typed exit code
    # and writes nothing; unguarded, a failed oracle left canonical_table.csv
    # and series wrote inf past the float range with exit 0
    command, cfg = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        out.mkdir()
        rc = main([command, "--config", write_cfg(tmp, cfg), "--out", str(out)])
        assert rc in (0, 2, 3, 5)
        written = sorted(out.iterdir())
        if rc:
            assert not written
            return
        assert written
        for path in written:
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    for column, text in row.items():
                        try:
                            value = float(text)
                        except ValueError:  # site labels such as "0/1"
                            continue
                        assert math.isfinite(value) or \
                            _documented_sentinel(path.name, row, column, value), \
                            (path.name, column, row)
