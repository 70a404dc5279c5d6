import json

import numpy as np
import pytest
from click.testing import CliRunner

from ldacert import cli, field

GAUSS = "builtin:gaussian,sigma=1,mass=1"


@pytest.fixture()
def runner():
    return CliRunner()


def _json_payload(result):
    line = next(ln for ln in result.output.splitlines() if ln.startswith("{"))
    return json.loads(line)


def test_certify_json(runner):
    result = runner.invoke(cli.main, ["certify", "--density", GAUSS])
    assert result.exit_code == 0
    doc = _json_payload(result)
    assert doc["epsilon_star"] == pytest.approx(0.94750031438888982, rel=1e-12)
    assert doc["rhs"]["total"] == pytest.approx(2.5221408838507084, rel=1e-12)
    assert doc["flags"] == ["conjectured_constant", "eps_star_above_half"]


def test_certify_deterministic_output(runner):
    args = ["certify", "--density", GAUSS]
    first = runner.invoke(cli.main, args)
    second = runner.invoke(cli.main, args)
    threaded = runner.invoke(cli.main, args, env={"LDA_CERT_THREADS": "4"})
    assert first.exit_code == second.exit_code == threaded.exit_code == 0
    assert first.output == second.output
    assert _json_payload(first) == _json_payload(threaded)


@pytest.mark.parametrize("args,fragment", [
    (["certify", "--density", GAUSS, "--p", "3"], "must exceed 3"),
    (["certify", "--density", "/no/such/file.grid"], ""),
    (["certify", "--density", "builtin:gaussian,sigma=1"], "missing"),
    (["certify", "--density", GAUSS, "--model", "custom:1.0"], "custom:<A>,<B>"),
    (["certify", "--density", GAUSS, "--bogus"], ""),
    (["scaling", "--n", "5:1:4"], ""),
    (["certify", "--density", GAUSS, "--q", "0"], "at least 1"),
])
def test_parameter_rejections_exit_2(runner, args, fragment):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert fragment in result.stderr


def test_thread_env_validation(runner):
    for bad in ("0", "up"):
        result = runner.invoke(cli.main, ["info"],
                               env={"LDA_CERT_THREADS": bad})
        assert result.exit_code == 2


def test_support_failure_exits_3(runner, tmp_path):
    spec = field.GridSpec((32, 32, 32), (4.0 / 31,) * 3, (-2.0, -2.0, -2.0))
    tight = field.density_to_field(field.Density.gaussian(1.0, 1.0), spec)
    path = tmp_path / "tight.grid"
    field.write_grid(tight, str(path))
    result = runner.invoke(cli.main, ["certify", "--density", str(path)])
    assert result.exit_code == 3
    assert "accuracy failure" in result.stderr


def test_scaling_slope(runner):
    result = runner.invoke(cli.main, ["scaling", "--n", "1e4:1e12:6"])
    assert result.exit_code == 0
    rows = [ln for ln in result.output.splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == "N total"
    assert len(rows) == 8
    tag, slope = rows[-1].split()
    assert tag == "slope"
    assert float(slope) == pytest.approx(0.91643227189443766, rel=1e-9)


def test_tile_round_trip(runner, tmp_path):
    out = tmp_path / "tile.grid"
    result = runner.invoke(cli.main, ["tile", "--ell", "4", "--delta", "1",
                                      "--out", str(out)])
    assert result.exit_code == 0
    f = field.read_grid(str(out))
    assert f.spec == field.default_grid(field.Density.smeared_tetra(1.0, 4.0, 1.0), 64)
    assert f.values.max() == pytest.approx(1.0 / (1.0 - 0.25) ** 3, rel=1e-12)
    copy = tmp_path / "copy.grid"
    field.write_grid(f, str(copy))
    assert out.read_bytes() == copy.read_bytes()


def test_tile_rejects_bad_config(runner, tmp_path):
    result = runner.invoke(cli.main, ["tile", "--ell", "4", "--delta", "3",
                                      "--out", str(tmp_path / "x.grid")])
    assert result.exit_code == 2


def test_info_lists_constants_and_tolerances(runner):
    result = runner.invoke(cli.main, ["info"])
    assert result.exit_code == 0
    assert "constants" in result.output
    assert "c_tf" in result.output
    assert "tolerances" in result.output
    for name in cli.TOLERANCES:
        assert name in result.output


@pytest.mark.parametrize("suite", ["kinetic", "lemmas"])
def test_verify_fast_suites(runner, suite):
    result = runner.invoke(cli.main, ["verify", "--suite", suite])
    assert result.exit_code == 0
    lines = [ln for ln in result.output.splitlines()
             if ln and not ln.startswith("#")]
    assert lines and all(ln.startswith("PASS") for ln in lines)


def test_grid_cli_read_matches_library(runner, tmp_path):
    rng = np.random.default_rng(5)
    spec = field.GridSpec((6, 5, 4), (0.3, 0.4, 0.5), (0.0, 0.0, 0.0))
    f = field.ScalarField(spec, rng.uniform(0.1, 1.0, size=spec.dims))
    path = tmp_path / "random.grid"
    field.write_grid(f, str(path))
    g = field.read_grid(str(path))
    assert g.spec == spec
    np.testing.assert_array_equal(g.values, f.values)
