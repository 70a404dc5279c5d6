import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ldacert
from ldacert import cli, field

GAUSS = "builtin:gaussian,sigma=1,mass=1"

# the whole stdout of `certify --density GAUSS`, byte for byte
GAUSS_JSON = (
    '{"params": {"p": 4, "theta": 0.5, "C": 1, "q": 1, "variant": "quantum", '
    '"model": "tf-dirac", "model_A": 9.1155997446911954, "model_B": '
    '-0.73855876638202234, "c_tf": 9.1155997446911954, "c_lo": '
    '1.6399999999999999}, "functionals": {"mass": 1, "l2": '
    '0.02244839026564582, "l43": 0.25912061210350168, "l53": '
    '0.07396853328737997, "kin": 0.75, "tv": 1.5957691216057308, "thg": '
    '0.0052613414685107381, "theta": 0.5, "p": 4, "hartree": '
    '0.28209479177387814}, "lda": 0.48289174353030628, "epsilon_star": '
    '0.94750031438888982, "rhs": {"bulk": 0.96877017122311371, "kin": '
    '1.5415564655867457, "theta": 0.011814247040848816, "total": '
    '2.5221408838507084}, "band": [-2.0392491403204023, 3.0050326273810146], '
    '"advisory_envelope": [0.24930973929988026, 67.706489804058862], '
    '"flags": ["conjectured_constant", "eps_star_above_half"]}' "\n"
)

TETRA = "builtin:smeared-tetra,rho0=1,ell=2,delta=0.5"

# the whole stdout of `certify --density TETRA`: the functionals come from
# the tile table, and "hartree" is the tile's closed form
TETRA_JSON = (
    '{"params": {"p": 4, "theta": 0.5, "C": 1, "q": 1, "variant": "quantum", '
    '"model": "tf-dirac", "model_A": 9.1155997446911954, "model_B": '
    '-0.73855876638202234, "c_tf": 9.1155997446911954, "c_lo": '
    '1.6399999999999999}, "functionals": {"mass": 0.33333333333333331, "l2": '
    '0.2982895180142156, "l43": 0.31779112647552493, "l53": '
    '0.30670308969745341, "kin": 54.578965689750056, "tv": '
    '3.5607809727244333, "thg": 13842.279471373558, "theta": 0.5, "p": 4, '
    '"hartree": 0.13462435100956757}, "lda": 2.5610751838051904, '
    '"epsilon_star": 9.2957349831121974, "rhs": {"bulk": 5.8713986354044856, '
    '"kin": 60.450364324597658, "theta": 4.1395354657700547e-11, "total": '
    '66.321762960043543}, "band": [-63.760687776238356, 68.88283814384873], '
    '"advisory_envelope": [2.2746051587222462, 3452.2359682064443], "flags": '
    '["conjectured_constant", "eps_star_above_half"]}' "\n"
)

# the stdout lines of `scaling --n 1e4:1e12:6` and of `verify --suite NAME`
SCALING_ROWS = [
    "N total",
    "10000 11293.418831879229",
    "398107.17055349692 329178.28594529669",
    "15848931.924611142 9633877.5179059729",
    "630957344.48019433 282113802.87960047",
    "25118864315.095821 8261987507.9516068",
    "1000000000000 241963704180.11981",
    "slope 0.91643227189443766",
]

VERIFY_ROWS = {
    "kinetic": [
        "PASS kinetic.envelope_mass              residual=0.000e+00 tol=1.0e-10",
        "PASS kinetic.fisher_identity            residual=0.000e+00 tol=1.0e-08",
        "PASS kinetic.envelope_mass              residual=8.882e-16 tol=1.0e-10",
        "PASS kinetic.fisher_identity            residual=3.790e-16 tol=1.0e-08",
        "PASS kinetic.shift_series               residual=1.767e-08 tol=5.0e-04",
        "PASS kinetic.margins                    residual=0.000e+00 tol=1.0e-12",
        "PASS kinetic.c_tf                       residual=1.949e-16 tol=1.0e-12",
        "PASS kinetic.c_lo_grad                  residual=7.241e-06 tol=5.0e-05",
    ],
    "lemmas": [
        "PASS lemmas.optimize_eps                residual=2.260e-11 tol=1.0e-09",
        "PASS lemmas.scale_choice                residual=1.735e-16 tol=1.0e-12",
        "PASS lemmas.classical_exponent          residual=0.000e+00 tol=1.0e-15",
        "PASS lemmas.subadditivity_vanishing     residual=0.000e+00 tol=1.0e-12",
        "PASS lemmas.kinetic_band_order          residual=0.000e+00 tol=1.0e-12",
        "PASS lemmas.rhs_linearity               residual=0.000e+00 tol=1.0e-12",
        "PASS lemmas.parameter_gates             residual=0.000e+00 tol=5.0e-01",
        "PASS lemmas.classical_rate              residual=0.000e+00 tol=1.0e-03",
    ],
}


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
    assert result.stdout == GAUSS_JSON


def test_certify_smeared_tetra_json(runner):
    result = runner.invoke(cli.main, ["certify", "--density", TETRA])
    assert result.exit_code == 0
    assert result.stdout == TETRA_JSON


def test_certify_exactly_flat_gaussian(runner):
    """Every band functional of this gaussian underflows to 0 while its
    mass does not, so the optimum is flat: eps* = 0 and a zero band."""
    result = runner.invoke(cli.main, ["certify", "--density", "builtin:gaussian,sigma=1e154,mass=1e-20"])
    assert result.exit_code == 0
    doc = _json_payload(result)
    assert doc["flags"] == ["exactly_flat"]
    assert doc["functionals"]["thg"] == 0.0 and doc["functionals"]["mass"] == 1e-20
    assert doc["epsilon_star"] == 0.0 and doc["band"] == [0.0, 0.0]


@pytest.mark.parametrize("extra", [["--theta", "0.05"],
                                   ["--theta", "0.0333334", "--variant", "classical"]],
                         ids=["quantum", "classical"])
def test_certify_compact_bump_at_large_p(runner, extra, bump_reference):
    # accepted parameters whose thg integrand has factors beyond the float
    # range; the product, and so thg, is finite
    theta = float(extra[1])
    result = runner.invoke(cli.main, ["certify", "--density",
                                      "builtin:compact-bump,radius=1,mass=1",
                                      "--p", "40", *extra])
    assert result.exit_code == 0, result.output
    # unit radius and mass: thg = c^(p theta) int |grad e^(-theta/(1-u^2))|^p
    # with c = 1 / int e^(-1/(1-u^2))
    ref = (bump_reference("pow", 1.0, 0.0) ** (-40 * theta)
           * bump_reference("grad", theta, 40.0))
    assert abs(_json_payload(result)["functionals"]["thg"] / ref - 1) <= 1e-13


def test_certify_compact_bump_refuses_an_unresolved_thg(runner):
    # accepted classical parameters whose thg integrand peaks far inside one
    # cell of the radial rule: a parameter rejection, not a wrong value
    result = runner.invoke(cli.main, ["certify", "--density",
                                      "builtin:compact-bump,radius=1,mass=1",
                                      "--p", "1000", "--theta", "0.0013334",
                                      "--variant", "classical"])
    assert result.exit_code == 2
    assert "parameter rejection" in result.output and "radial rule" in result.output


def test_certify_deterministic_output(runner):
    args = ["certify", "--density", GAUSS]
    first = runner.invoke(cli.main, args)
    second = runner.invoke(cli.main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


@pytest.mark.parametrize("args,fragment", [
    (["certify", "--density", GAUSS, "--p", "3"], "must exceed 3"),
    (["certify", "--density", "/no/such/file.grid"], ""),
    (["certify", "--density", "builtin:gaussian,sigma=1"], "missing"),
    (["certify", "--density", GAUSS, "--model", "custom:1.0"], "custom:<A>,<B>"),
    (["certify", "--density", GAUSS, "--bogus"], ""),
    (["scaling", "--n", "5:1:4"], ""),
    (["certify", "--density", GAUSS, "--q", "0"], "at least 1"),
    (["certify", "--density", "builtin:compact-bump,radius=inf,mass=1"], "must be finite"),
    (["certify", "--density", "builtin:smeared-tetra,rho0=1,ell=inf,delta=0.5"],
     "must be finite"),
    (["scaling", "--n", "1e4:1e12:6", "--p", "inf"], "must be finite"),
])
def test_parameter_rejections_exit_2(runner, args, fragment):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert fragment in result.stderr


@pytest.mark.parametrize("args", [
    ["--density", GAUSS, "--p", "400", "--theta", "0.5"],
    ["--density", GAUSS, "--p", "1e300"],
    ["--density", "builtin:gaussian,sigma=1e-200,mass=1"],
    ["--density", "builtin:gaussian,sigma=1,mass=1e300"],
    ["--density", "builtin:compact-bump,radius=1e-300,mass=1"],
])
def test_arithmetic_failures_exit_2(runner, args):
    # finite, in-gate parameters whose functionals overflow or divide by zero
    result = runner.invoke(cli.main, ["certify", *args])
    assert result.exit_code == 2
    assert "parameter rejection" in result.stderr
    assert "Traceback" not in result.stderr


def test_unreadable_density_file_exits_2(runner, tmp_path):
    # a directory raises IsADirectoryError, an OSError like a missing file
    result = runner.invoke(cli.main, ["certify", "--density", str(tmp_path)])
    assert result.exit_code == 2
    assert "parameter rejection" in result.stderr
    assert "Traceback" not in result.stderr


def test_malformed_v2_grid_exits_2(runner, tmp_path):
    path = tmp_path / "short.grid"
    field.write_grid(field.ScalarField(field.GridSpec((4, 4, 4), (0.5,) * 3),
                                       np.ones((4, 4, 4))), str(path))
    path.write_bytes(path.read_bytes()[:-8])
    result = runner.invoke(cli.main, ["certify", "--density", str(path)])
    assert result.exit_code == 2
    assert "payload bytes" in result.stderr


def test_certify_output_is_the_same_for_v1_and_v2_files(runner, tmp_path):
    v2 = tmp_path / "tile.grid"
    assert runner.invoke(cli.main, ["tile", "--ell", "4", "--delta", "1",
                                    "--out", str(v2)]).exit_code == 0
    assert v2.read_bytes().startswith(b"LDA-GRID v2 ")
    f = field.read_grid(str(v2))
    flat = f.values.ravel(order="F")
    v1 = tmp_path / "tile-v1.grid"
    v1.write_text(
        "LDA-GRID v1 %d %d %d %.17g %.17g %.17g %.17g %.17g %.17g\n"
        % (*f.spec.dims, *f.spec.spacing, *f.spec.origin)
        + "".join(" ".join("%.17g" % v for v in flat[i:i + 8]) + "\n"
                  for i in range(0, flat.size, 8)))
    out = [runner.invoke(cli.main, ["certify", "--density", str(path)])
           for path in (v1, v2)]
    assert [r.exit_code for r in out] == [0, 0]
    assert out[0].stdout == out[1].stdout


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
    assert result.stdout == "".join(row + "\n" for row in SCALING_ROWS)


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
    assert result.stdout == "".join(row + "\n" for row in VERIFY_ROWS[suite])


def test_verify_hartree_check_takes_the_grid_route():
    # certify takes the gaussian D in closed form; verify must still test
    # the grid against it, not the closed form against itself
    residual = dict(cli._suite_coulomb())["coulomb.hartree_gaussian"]
    assert 0.0 < residual <= cli.TOLERANCES["coulomb.hartree_gaussian"]


def test_grid_cli_read_matches_library(runner, tmp_path):
    rng = np.random.default_rng(5)
    spec = field.GridSpec((6, 5, 4), (0.3, 0.4, 0.5), (0.0, 0.0, 0.0))
    f = field.ScalarField(spec, rng.uniform(0.1, 1.0, size=spec.dims))
    path = tmp_path / "random.grid"
    field.write_grid(f, str(path))
    g = field.read_grid(str(path))
    assert g.spec == spec
    np.testing.assert_array_equal(g.values, f.values)


def test_package_import_loads_no_numpy():
    # the package's re-exports of field load on first use
    probe = ("import sys, ldacert; assert 'numpy' not in sys.modules, 'numpy'; "
             "from ldacert import Density, write_grid; import ldacert.field as f; "
             "assert Density is f.Density and write_grid is f.write_grid; "
             "assert ldacert.FunctionalSet is f.FunctionalSet; "
             "assert not hasattr(ldacert, 'nothing'); print('ok')")
    env = dict(os.environ, PYTHONPATH=str(Path(ldacert.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


_IMPORT_PROBE = """
import sys
from ldacert import cli
cli.main.main(sys.argv[1:], standalone_mode=False)
sys.stderr.write("scipy loaded: %s\\n" % " ".join(
    name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_command_loads_scipy(tmp_path):
    # the transforms are numpy.fft, Dawson's function and every quadrature
    # are numpy sums, and the eps optimizers are closed forms and one
    # bisection: no command imports any scipy module
    g = field.Density.gaussian(1.0, 1.0)
    path = tmp_path / "small.grid"
    field.write_grid(field.density_to_field(g, field.default_grid(g, 24)), str(path))
    env = dict(os.environ, PYTHONPATH=str(Path(ldacert.__file__).parents[1]))
    for args in (["certify", "--density", str(path)],
                 ["certify", "--density", TETRA],
                 ["certify", "--density", GAUSS],
                 ["certify", "--density", "builtin:compact-bump,radius=1,mass=1"],
                 ["tile", "--ell", "2", "--delta", "0.5", "--out", str(tmp_path / "tile.grid")],
                 ["verify", "--suite", "all"],
                 ["scaling", "--n", "1e4:1e12:6"],
                 ["info"]):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *args],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.rsplit("scipy loaded:", 1)[1].split() == [], args
