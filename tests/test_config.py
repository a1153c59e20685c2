import pytest

from quduct.config import ConfigError, load_config
from quduct.core import TWO_PI

GOOD = """
[device]
omega_m_hz = 1.27e6
gamma_m_hz = 15
kappa_e_hz = 1.5e6
kappa_e_ext_hz = 1.2e6
kappa_o_hz = 1.2e6
kappa_o_ext_hz = 0.9e6
eta_m = 0.4

[noise]
n_th_gamma_m_hz = 4150
n_lock_gamma_lock_hz = 380
a_e_per_hz = 1.3e-5
b_e = 0.7

[operating_point.up]
gamma_e_hz = 11000
gamma_o_hz = 11000
"""


def write(tmp_path, text):
    path = tmp_path / "dev.cfg"
    path.write_text(text)
    return path


def test_load_good_config(tmp_path):
    cfg = load_config(write(tmp_path, GOOD))
    assert cfg.device.omega_m == pytest.approx(TWO_PI * 1.27e6)
    assert cfg.environment.n_th_gamma_m == pytest.approx(TWO_PI * 4150)
    # per-Hz slope converts to seconds: n = a * Gamma = (a_per_hz/2pi) * 2pi f
    assert cfg.environment.a_e * TWO_PI == pytest.approx(1.3e-5)
    op = cfg.operating_points["up"]
    assert op.gamma_e == pytest.approx(TWO_PI * 11000)
    assert op.duty == 1.0  # default when unspecified


def test_occupancy_slope_round_trips_through_model(tmp_path):
    from quduct.noise import n_bar_e

    cfg = load_config(write(tmp_path, GOOD))
    # at gamma_e = 2pi * 10 kHz the linear model gives 1.3e-5 * 1e4 + 0.7
    value = n_bar_e(cfg.environment, TWO_PI * 10e3)
    assert value == pytest.approx(0.83, rel=1e-12)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(write(tmp_path, GOOD.replace("eta_m = 0.4", "eta_em = 0.4")))


def test_missing_required_key(tmp_path):
    with pytest.raises(ConfigError, match="missing required"):
        load_config(write(tmp_path, GOOD.replace("omega_m_hz = 1.27e6", "")))


def test_missing_operating_point(tmp_path):
    text = GOOD.split("[operating_point.up]")[0]
    with pytest.raises(ConfigError, match="no \\[operating_point"):
        load_config(write(tmp_path, text))


def test_nonnumeric_value(tmp_path):
    with pytest.raises(ConfigError, match="not a number"):
        load_config(write(tmp_path, GOOD.replace("0.4", "forty")))


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("omega_m_hz = 1.27e6", "omega_m_hz = nan", r"\[device\] omega_m_hz"),
        ("gamma_o_hz = 11000", "gamma_o_hz = inf", r"\[operating_point.up\] gamma_o_hz"),
    ],
    ids=["nan", "inf"],
)
def test_nonfinite_value_names_section_and_key(tmp_path, old, new, where):
    with pytest.raises(ConfigError, match=where + ".*not finite"):
        load_config(write(tmp_path, GOOD.replace(old, new)))


def test_device_that_fails_validation_is_refused_naming_the_file(tmp_path):
    text = GOOD.replace("kappa_e_ext_hz = 1.2e6", "kappa_e_ext_hz = 2e6\ngain_o = 0.5")
    path = write(tmp_path, text.replace("eta_m = 0.4", "eta_m = 1.5"))
    violations = ["external exceeds total linewidth on the e port",
                  "gain below unity on the o port", "eta_m must lie in [0, 1]"]
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path} fails validation: {'; '.join(violations)}"


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_bundled_example_loads():
    from quduct.registry import bundled_registry_path

    example = bundled_registry_path().parent / "example_device.cfg"
    cfg = load_config(example)
    assert set(cfg.operating_points) == {"up", "down"}
    assert cfg.device.eps_e == 1.0
