"""INI experiment configs: defaults, typed values, hard unknown-key errors."""
from __future__ import annotations

import pytest

from evofam import ConfigError, ExperimentConfig, parse_config
from evofam.config import LiftedSection

MINIMAL = """\
[experiment]
kind = oracle

[engine]
dt = 0.01
"""

BOLTZMANN = """\
[experiment]
kind = boltzmann

[engine]
dt = 0.01

[grid]
kind = velocity
min = -1.0
max = 1.0
n = 3
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.kind == "oracle"
    assert cfg.engine.s == 0.0
    assert cfg.engine.t_end == 1.0
    assert cfg.engine.dt == 0.01
    assert cfg.engine.n_max == 20
    assert cfg.engine.series_tol == 1e-10
    assert cfg.engine.rule == "trapezoid"
    assert cfg.honesty.threshold == 1e-8
    assert cfg.honesty.persistence == 3
    assert cfg.initial.kind == "uniform"
    assert cfg.output.directory == "out"
    assert cfg.output.emit_svg is False


def test_echo_rows_sorted_by_section_and_key(tmp_path):
    text = MINIMAL + "\n[honesty]\nthreshold = 1e-9\npersistence = 4\n"
    cfg = parse_config(write(tmp_path, text))
    assert cfg.echo_rows == (
        ("engine.dt", "0.01"),
        ("experiment.kind", "oracle"),
        ("honesty.persistence", "4"),
        ("honesty.threshold", "1e-9"),
    )


def test_missing_file_and_unparseable_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "absent.ini")
    with pytest.raises(ConfigError, match="does not parse"):
        parse_config(write(tmp_path, "dt = 0.01 with no section header\n"))


def test_unknown_keys_are_all_listed(tmp_path):
    text = """\
[experiment]
kind = oracle

[engine]
dt = 0.01
dtt = 0.02
warp = 9

[mystery]
x = 1
"""
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, text))
    message = str(err.value)
    assert "[engine] dtt" in message
    assert "[engine] warp" in message
    assert "[mystery] (unknown section)" in message


def test_kind_section_validation(tmp_path):
    bad_kind = BOLTZMANN + "\n[kernel]\nkind = weird\n"
    with pytest.raises(ConfigError, match=r"\[kernel\] kind = 'weird'"):
        parse_config(write(tmp_path, bad_kind))
    # parameters from another kind are unknown keys
    mixed = BOLTZMANN + "\n[kernel]\nkind = uniform\nwidth = 0.5\n"
    with pytest.raises(ConfigError, match=r"\[kernel\] width"):
        parse_config(write(tmp_path, mixed))
    bad_time = BOLTZMANN + "\n[kernel]\nkind = uniform\ntime_kind = looped\n"
    with pytest.raises(ConfigError, match=r"time_kind = 'looped'"):
        parse_config(write(tmp_path, bad_time))
    # time-profile parameters ride along with the declared time kind
    timed = BOLTZMANN + ("\n[kernel]\nkind = gaussian\namplitude = 0.5\nwidth = 0.5\n"
                         "time_kind = affine\ntime_c0 = 1.0\ntime_c1 = 0.5\n")
    cfg = parse_config(write(tmp_path, timed))
    assert cfg.sections["kernel"] == {"kind": "gaussian", "amplitude": 0.5, "width": 0.5,
                                      "time_kind": "affine", "time_c0": 1.0, "time_c1": 0.5}


def test_scalar_type_errors_name_section_and_key(tmp_path):
    with pytest.raises(ConfigError, match=r"\[engine\] dt = 'fast' is not a valid float"):
        parse_config(write(tmp_path, MINIMAL.replace("dt = 0.01", "dt = fast")))
    with pytest.raises(ConfigError, match=r"\[engine\] n_max = 'many' is not a valid int"):
        parse_config(write(tmp_path, MINIMAL + "n_max = many\n"))
    text = MINIMAL + "\n[output]\nemit_svg = maybe\n"
    with pytest.raises(ConfigError, match="not a valid bool"):
        parse_config(write(tmp_path, text))


def test_bool_spellings(tmp_path):
    for raw, expected in (("true", True), ("yes", True), ("on", True), ("1", True),
                          ("False", False), ("no", False), ("off", False), ("0", False)):
        text = MINIMAL + f"\n[output]\nemit_svg = {raw}\n"
        assert parse_config(write(tmp_path, text)).output.emit_svg is expected


@pytest.mark.parametrize("patch,match", [
    ("[engine]\ndt = -0.5\n", "dt must be positive"),
    ("[engine]\ndt = 0.1\ns = 2.0\nt_end = 1.0\n", "t_end must exceed s"),
    ("[engine]\ndt = 0.1\nn_max = 2\n", "n_max must be >= 3"),
    ("[engine]\ndt = 0.1\nrule = simpson\n", r"\[engine\] rule"),
    ("[engine]\ndt = 0.1\n[honesty]\nthreshold = 0\n", "threshold must be positive"),
    ("[engine]\ndt = 0.1\n[honesty]\npersistence = 0\n", "persistence must be >= 1"),
    ("[engine]\ndt = 0.1\n[initial]\nkind = pulse\n", r"\[initial\] kind"),
    ("[engine]\ndt = 0.1\n[initial]\nkind = csv\n", "requires path"),
    ("[engine]\ndt = 0.1\n[initial]\nkind = maxwellian\ntemperature = 0\n",
     "temperature must be positive"),
])
def test_section_invariants(tmp_path, patch, match):
    text = "[experiment]\nkind = boltzmann\n" + patch
    with pytest.raises(ConfigError, match=match):
        parse_config(write(tmp_path, text))


def test_experiment_kind_required_and_checked(tmp_path):
    with pytest.raises(ConfigError, match=r"missing required key \[experiment\] kind"):
        parse_config(write(tmp_path, "[engine]\ndt = 0.1\n"))
    with pytest.raises(ConfigError, match=r"\[experiment\] kind = 'sideways'"):
        parse_config(write(tmp_path, "[experiment]\nkind = sideways\n[engine]\ndt = 0.1\n"))
    with pytest.raises(ConfigError, match=r"missing required key \[engine\] dt"):
        parse_config(write(tmp_path, "[experiment]\nkind = oracle\n"))


def test_top_level_keys_rejected(tmp_path):
    # a key before any header fails the INI parser itself; DEFAULT-section
    # keys parse but are refused as section-less configuration
    text = "[DEFAULT]\nstray = 1\n[experiment]\nkind = oracle\n[engine]\ndt = 0.1\n"
    with pytest.raises(ConfigError, match="outside a section"):
        parse_config(write(tmp_path, text))


def test_comma_lists_parse_to_floats(tmp_path):
    text = MINIMAL + "\n[sweep]\nkind = dt\nvalues = 0.1, 0.05 ,0.025\n"
    assert parse_config(write(tmp_path, text)).sections["sweep"] == {
        "kind": "dt", "values": [0.1, 0.05, 0.025]}
    empty = MINIMAL + "\n[sweep]\nkind = dt\nvalues = , \n"
    with pytest.raises(ConfigError, match=r"\[sweep\] values holds no values"):
        parse_config(write(tmp_path, empty))
    bad = MINIMAL + "\n[sweep]\nkind = dt\nvalues = 0.1, fast\n"
    with pytest.raises(ConfigError, match=r"\[sweep\] values = 'fast' is not a valid float"):
        parse_config(write(tmp_path, bad))
    # a key its section must hold
    with pytest.raises(ConfigError, match=r"missing required key \[sweep\] values"):
        parse_config(write(tmp_path, MINIMAL + "\n[sweep]\nkind = dt\n"))


def test_kind_section_parameters_are_typed(tmp_path):
    text = BOLTZMANN + ("\n[frequency]\nkind = affine\nc0 = 1.0\nc1 = 2.0\n"
                        "\n[kernel]\nkind = outflow\ntarget = 1.0, 2.0, 3.0\n"
                        "\n[model]\nstrict_subcritical = off\n")
    cfg = parse_config(write(tmp_path, text))
    assert cfg.sections["frequency"] == {"kind": "affine", "c0": 1.0, "c1": 2.0}
    assert cfg.sections["kernel"] == {"kind": "outflow", "target": [1.0, 2.0, 3.0]}
    assert cfg.sections["model"] == {"strict_subcritical": False}
    assert cfg.sections["grid"] == {"kind": "velocity", "min": -1.0, "max": 1.0, "n": 3}
    # absent sections stay absent; present ones hold only their present keys
    assert "rate" not in cfg.sections
    assert cfg.sections["engine"] == {"dt": 0.01}
    with pytest.raises(ConfigError, match=r"\[frequency\] c1 = 'x' is not a valid float"):
        parse_config(write(tmp_path, text.replace("c1 = 2.0", "c1 = x")))
    with pytest.raises(ConfigError, match=r"\[grid\] n = '3.5' is not a valid int"):
        parse_config(write(tmp_path, text.replace("n = 3", "n = 3.5")))
    with pytest.raises(ConfigError, match=r"\[kernel\] time_c0 = 'x' is not a valid float"):
        timed = text.replace("target = 1.0, 2.0, 3.0\n",
                             "target = 1.0, 2.0, 3.0\ntime_kind = affine\ntime_c0 = x\n")
        parse_config(write(tmp_path, timed))
    with pytest.raises(ConfigError, match=r"missing required key \[grid\] max"):
        parse_config(write(tmp_path, text.replace("max = 1.0\n", "")))
    # a pwlinear profile without its knots is a config error, not a KeyError
    knotless = text.replace("kind = affine\nc0 = 1.0\nc1 = 2.0", "kind = pwlinear\nvalues = 1, 2")
    with pytest.raises(ConfigError, match=r"missing required key \[frequency\] times"):
        parse_config(write(tmp_path, knotless))


def test_lifted_section_defaults_and_types(tmp_path):
    text = MINIMAL.replace("oracle", "lifted_checks") + "\n[lifted]\nn_terms = 5\n"
    lifted = LiftedSection(**parse_config(write(tmp_path, text)).sections["lifted"])
    assert lifted.n_terms == 5
    assert lifted.h == 1.0 / 64.0
    with pytest.raises(ConfigError, match=r"\[lifted\] h = 'abc' is not a valid float"):
        parse_config(write(tmp_path, text + "h = abc\n"))


# Keys and sections the chosen kind never reads are refused, not ignored.

def test_boltzmann_refuses_fragmentation_model_key(tmp_path):
    text = BOLTZMANN + "\n[model]\nstrict_kernel = true\n"
    with pytest.raises(ConfigError, match=r"\[model\] strict_kernel"):
        parse_config(write(tmp_path, text))


def test_velocity_grid_refuses_mass_grid_key(tmp_path):
    text = BOLTZMANN.replace("n = 3\n", "n = 3\nxmin = -5.0\n")
    with pytest.raises(ConfigError, match=r"\[grid\] xmin"):
        parse_config(write(tmp_path, text))
    with pytest.raises(ConfigError, match=r"\[grid\] kind = 'mass'"):
        parse_config(write(tmp_path, BOLTZMANN.replace("velocity", "mass")))


def test_oracle_refuses_lifted_section(tmp_path):
    text = MINIMAL + "\n[lifted]\nh = abc\n"
    with pytest.raises(ConfigError, match=r"\[lifted\] h"):
        parse_config(write(tmp_path, text))


def test_shattering_sweep_refuses_grid_section(tmp_path):
    base = "[experiment]\nkind = shattering_sweep\n[shattering]\nalpha = 1.0\n"
    with pytest.raises(ConfigError, match=r"\[grid\] \(not read by shattering_sweep runs\)"):
        parse_config(write(tmp_path, base + "[engine]\ndt = 0.1\n[grid]\nkind = mass\n"))
    # [engine], [honesty] and [output] keys stay accepted for every kind,
    # read or not
    kept = base + ("[engine]\ndt = 0.1\nn_max = 12\n[honesty]\nthreshold = 1e-9\n"
                   "[output]\nemit_svg = yes\n")
    cfg = parse_config(write(tmp_path, kept))
    assert (cfg.engine.n_max, cfg.honesty.threshold, cfg.output.emit_svg) == (12, 1e-9, True)
