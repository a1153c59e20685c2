"""On-resonance added-noise budgets for both conversion directions.

Two families of models are provided.  The ideal forms assume lossless
cavities in the resolved-sideband regime with perfect optical mode
matching; the lossy forms fold in sideband gain, internal cavity loss
(external/total linewidth ratios), mode matching, the peak-efficiency
cap, and the locking-beam backaction product.  Every lossy form reduces
exactly to its ideal counterpart when all loss and gain factors are set
to one and the locking term is zero.

Port occupancies entering the motional terms include the backaction
limits: n_em = n_bar_e + n_min_e and n_om = n_bar_o + n_min_o.  In the
resolved-sideband limit the n_min contributions vanish and these reduce
to the bare occupancies.
"""

from __future__ import annotations

from .core import (
    DeviceParams,
    NoiseBudget,
    NoiseEnvironment,
    OperatingPoint,
    assemble_budget,
    transduction,
)

MODEL_IDEAL_UP = "ideal_up"
MODEL_IDEAL_DOWN = "ideal_down"
MODEL_IDEAL_DOWN_COMBINED = "ideal_down_combined"
MODEL_LOSSY_UP = "lossy_up"
MODEL_LOSSY_DOWN = "lossy_down"


def n_bar_e(env: NoiseEnvironment, gamma_e):
    """Microwave circuit occupancy at a given electromechanical rate,
    linear model a_e * gamma_e + b_e; :func:`evaluate` rejects a negative one.
    """
    return env.a_e * gamma_e + env.b_e


def _require_positive(name: str, value: float):
    if value <= 0.0:
        raise ValueError(f"{name} must be positive here (division), got {value}")


def _damping_and_occupancies(params: DeviceParams, env: NoiseEnvironment, gamma_e, gamma_o):
    """Total damping Gamma_T, n_bar_e, and the port occupancies n_em and n_om."""
    nbe = n_bar_e(env, gamma_e)
    gamma_t = transduction(params, gamma_e, gamma_o)[0]
    return gamma_t, nbe, nbe + params.n_min_e, env.n_bar_o + params.n_min_o


def _up_ideal(params: DeviceParams, env: NoiseEnvironment, gamma_e, gamma_o):
    """Upconversion added noise, lossless resolved-sideband form.

    Motional: thermal/Gamma_e + n_em + n_om Gamma_o / Gamma_e.
    Electromagnetic: n_bar_o Gamma_T^2 / (Gamma_e Gamma_o).
    Correlation (subtracted): 2 n_bar_o Gamma_T / Gamma_e.
    """
    gamma_t, _, n_em, n_om = _damping_and_occupancies(params, env, gamma_e, gamma_o)
    motional = env.n_th_gamma_m / gamma_e + n_em + n_om * gamma_o / gamma_e
    electromagnetic = env.n_bar_o * (gamma_t * gamma_t) / (gamma_e * gamma_o)
    correlation = 2.0 * env.n_bar_o * gamma_t / gamma_e
    return motional, electromagnetic, correlation


def _down_ideal(params: DeviceParams, env: NoiseEnvironment, gamma_e, gamma_o):
    """Downconversion added noise, lossless resolved-sideband form.

    Mirror of :func:`_up_ideal` under exchange of the two ports.
    """
    gamma_t, nbe, n_em, n_om = _damping_and_occupancies(params, env, gamma_e, gamma_o)
    motional = env.n_th_gamma_m / gamma_o + n_om + n_em * gamma_e / gamma_o
    electromagnetic = nbe * (gamma_t * gamma_t) / (gamma_o * gamma_e)
    correlation = 2.0 * nbe * gamma_t / gamma_o
    return motional, electromagnetic, correlation


def _down_combined(params: DeviceParams, env: NoiseEnvironment, gamma_e, gamma_o):
    """Downconversion added noise with the port terms combined.

    thermal/Gamma_o + n_om + n_bar_e Gamma_o / Gamma_e
    + n_min_e Gamma_e / Gamma_o.  Algebraically identical to
    :func:`_down_ideal` whenever Gamma_T = Gamma_e + Gamma_o
    (negligible intrinsic loss in the total damping).  The last term is
    what limits the ratio Gamma_e / Gamma_o at high microwave drive.

    Grouping: the first two terms are reported as motional, the two
    occupancy terms as electromagnetic; the correlation slot is zero
    because the interference has been absorbed.
    """
    nbe = n_bar_e(env, gamma_e)
    motional = env.n_th_gamma_m / gamma_o + env.n_bar_o + params.n_min_o
    electromagnetic = nbe * gamma_o / gamma_e + params.n_min_e * gamma_e / gamma_o
    return motional, electromagnetic, 0.0


def _down_lossy(params: DeviceParams, env: NoiseEnvironment, gamma_e, gamma_o):
    """Downconversion added noise with lossy cavities and finite sideband gain.

    Motional: (thermal + locking + n_om Gamma_o + n_em Gamma_e)
              / (A_o eps (k_o_ext/k_o) Gamma_o).
    Electromagnetic: n_bar_e (k_e_ext/k_e) Gamma_T^2
              / (A_e A_o eta_m Gamma_e Gamma_o).
    Correlation: 2 n_bar_e Gamma_T
              / (A_o eps sqrt(A_e) (k_o_ext/k_o) Gamma_o).
    """
    ratio_o = params.kappa_o_ext / params.kappa_o
    ratio_e = params.kappa_e_ext / params.kappa_e
    _require_positive("kappa_o_ext/kappa_o", ratio_o)
    _require_positive("kappa_e_ext/kappa_e", ratio_e)
    _require_positive("eps_mode", params.eps_mode)
    _require_positive("eta_m", params.eta_m)
    _require_positive("gain_e", params.gain_e)  # its square root divides
    gamma_t, nbe, n_em, n_om = _damping_and_occupancies(params, env, gamma_e, gamma_o)

    denom_o = params.gain_o * params.eps_mode * ratio_o * gamma_o
    motional = (
        env.n_th_gamma_m
        + env.n_lock_gamma_lock
        + n_om * gamma_o
        + n_em * gamma_e
    ) / denom_o
    electromagnetic = (
        nbe * ratio_e * (gamma_t * gamma_t) / (params.gain_total * params.eta_m * gamma_e * gamma_o)
    )
    correlation = 2.0 * nbe * gamma_t / (denom_o * params.gain_e**0.5)
    return motional, electromagnetic, correlation


def _up_lossy(params: DeviceParams, env: NoiseEnvironment, gamma_e, gamma_o):
    """Upconversion added noise with lossy cavities, motional term only.

    (thermal + locking + n_em Gamma_e + n_om Gamma_o)
    / (A_e eps_e (k_e_ext/k_e) Gamma_e).  The electromagnetic and
    correlation terms are zero: the optical occupancy driving them is
    negligible with a well-filtered optical pump.  ``eps_e`` is the
    microwave-side extraction factor; no measurement pins it, so it
    defaults to 1 and is a config knob.
    """
    ratio_e = params.kappa_e_ext / params.kappa_e
    _require_positive("kappa_e_ext/kappa_e", ratio_e)
    _require_positive("eps_e", params.eps_e)
    _, _, n_em, n_om = _damping_and_occupancies(params, env, gamma_e, gamma_o)
    denom_e = params.gain_e * params.eps_e * ratio_e * gamma_e
    motional = (
        env.n_th_gamma_m
        + env.n_lock_gamma_lock
        + n_em * gamma_e
        + n_om * gamma_o
    ) / denom_e
    return motional, 0.0, 0.0


# model -> (formula, direction, the rates it divides by)
_MODELS = {
    MODEL_IDEAL_UP: (_up_ideal, "up", ("gamma_e", "gamma_o")),
    MODEL_IDEAL_DOWN: (_down_ideal, "down", ("gamma_e", "gamma_o")),
    MODEL_IDEAL_DOWN_COMBINED: (_down_combined, "down", ("gamma_e", "gamma_o")),
    MODEL_LOSSY_UP: (_up_lossy, "up", ("gamma_e",)),
    MODEL_LOSSY_DOWN: (_down_lossy, "down", ("gamma_e", "gamma_o")),
}
MODEL_KINDS = tuple(_MODELS)


def _model(kind: str):
    try:
        return _MODELS[kind]
    except KeyError:
        raise ValueError(f"unknown noise model {kind!r}; one of {MODEL_KINDS}") from None


def terms(kind: str, params: DeviceParams, env: NoiseEnvironment, gamma_e, gamma_o):
    """(motional, electromagnetic, correlation) of the model named by ``kind``.

    The rates are floats or equal-shape arrays; a term no rate enters
    comes back as a float.  Only the device, the same at every point, is
    checked here: :func:`evaluate` makes the per-point checks, and a sweep
    reports nan where they fail.
    """
    return _model(kind)[0](params, env, gamma_e, gamma_o)


def evaluate(
    kind: str, params: DeviceParams, op: OperatingPoint, env: NoiseEnvironment
) -> NoiseBudget:
    """Evaluate the added-noise model named by ``kind`` at one operating point.

    Rejects, in this order, a non-positive rate the model divides by, a
    device the model cannot use, a negative n_bar_e and a nonfinite term.
    """
    formula, direction, rates = _model(kind)
    for name in rates:
        _require_positive(name, getattr(op, name))
    motional, electromagnetic, correlation = formula(params, env, op.gamma_e, op.gamma_o)
    nbe = n_bar_e(env, op.gamma_e)
    if nbe < 0.0:
        raise ValueError(
            f"occupancy model gives negative n_bar_e = {nbe:.4g} at "
            f"gamma_e = {op.gamma_e:.4g} rad/s; coefficients are invalid there"
        )
    return assemble_budget(motional, electromagnetic, correlation, direction)
