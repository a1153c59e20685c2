"""Arbitrary-precision references, in mpmath, for the library's approximate numbers.

Each reference evaluates the defining formula directly at ``DIGITS``
significant digits with ``mp.quad``, sharing no code and no rewriting
with the library, so a test can hold a fast float formula to it.
"""

import mpmath as mp

DIGITS = 30


def _filter_bands(spec):
    """The notches of ``spec`` in half linewidths from its center."""
    half = mp.mpf(spec.linewidth_hz) / 2
    return [((mp.mpf(lo) - spec.center_hz) / half, (mp.mpf(hi) - spec.center_hz) / half)
            for lo, hi in spec.notches]


def e1(z):
    """E1(z) off the negative real axis, an mpc."""
    with mp.workdps(DIGITS):
        return mp.e1(mp.mpc(z.real, z.imag))


def edge_integral(x, tau):
    """i e^-tau E1(-tau (1 + ix)) at float ``x`` and ``tau > 0``.

    E1 takes its principal branch, and at x = 0, on its cut, the limit
    from x < 0.  Returns an mpc.
    """
    with mp.workdps(DIGITS):
        x, tau = mp.mpf(x), mp.mpf(tau)
        z = -tau * (1 + 1j * x) if x else mp.mpc(-tau, mp.mpf(10) ** (-3 * DIGITS))
        return 1j * mp.exp(-tau) * mp.e1(z)


def filter_eta_notch(spec):
    """1 - sum (atan b - atan a) / pi over the notches (a, b) of ``spec``."""
    with mp.workdps(DIGITS):
        return 1 - sum(mp.atan(b) - mp.atan(a) for a, b in _filter_bands(spec)) / mp.pi


def filter_report(spec, t_rep_s):
    """The six :class:`quduct.filters.FilterReport` fields of ``spec`` at ``t_rep_s``.

    With x = 2 (f - center) / linewidth, tau = Gamma_T t / 2 and each notch
    (a, b) in x, the response is the un-notched 2 pi e^-tau (tau > 0) minus
    one band integral per notch, int_a^b e^(i x tau) / (1 + ix) dx
    = -i e^-tau [Ei(tau (1 + ix))] from a to b, and a unit of energy is
    (1 / 2 pi^2) |.|^2 dtau:

    - eta_notch is :func:`filter_eta_notch`;
    - the window energies integrate that density over (0, T] and (T, 2T],
      T = Gamma_T t_rep / 2, by Gauss-Legendre on panels at most 20 long
      in tau, in which no edge and no difference of two edges turns
      e^(i x tau) through more than 8 pi, and fail unless mpmath's error
      estimate is below 1e-25;
    - the pre-window energy is (1/pi) int |G(x)|^2 dx over the real line,
      broken at every notch edge, with G the Fourier transform of the
      anti-causal part, (1 + ix) G = chi / 2 + sum [ln |b - x| - ln |a - x|
      - ln(1 + ib) + ln(1 + ia)] / (2 pi i), chi the notch indicator.

    The tail is eta_notch - pre - in-window energy.  Returns a dict of mpf.
    """
    with mp.workdps(DIGITS):
        bands = _filter_bands(spec)
        eta_notch = filter_eta_notch(spec)

        def anti_causal(x):
            chi = 1 if any(a < x < b for a, b in bands) else 0
            logs = sum(mp.log(abs(b - x)) - mp.log(abs(a - x))
                       - mp.log(1 + 1j * b) + mp.log(1 + 1j * a) for a, b in bands)
            return abs((mp.mpf(chi) / 2 + logs / (2j * mp.pi)) / (1 + 1j * x)) ** 2

        edges = sorted(edge for band in bands for edge in band)
        pre = mp.quad(anti_causal, [-mp.inf, *edges, mp.inf]) / mp.pi if bands else mp.mpf(0)

        def density(tau):
            notched = sum(-1j * mp.exp(-tau) * (mp.ei(tau * (1 + 1j * b)) - mp.ei(tau * (1 + 1j * a)))
                          for a, b in bands)
            return abs(2 * mp.pi * mp.exp(-tau) - notched) ** 2 / (2 * mp.pi**2)

        spread = max([0, *edges]) - min([0, *edges])
        step = min(20, 8 * mp.pi / max(spread, 1))

        def energy(start, stop):
            count = int(mp.ceil((stop - start) / step))
            panels = [start + (stop - start) * k / count for k in range(count + 1)]
            value, error = mp.quad(density, panels, method="gauss-legendre", error=True)
            assert error < mp.mpf(10) ** (5 - DIGITS), error
            return value

        window = mp.mpf(spec.gamma_t) * mp.mpf(t_rep_s) / 2
        in_window = energy(mp.mpf(0), window)
        first = energy(window, 2 * window)
        return {
            "eta_notch": eta_notch,
            "eta_temporal": in_window / eta_notch,
            "eta_total": in_window,
            "tail_noise_photons": eta_notch - pre - in_window,
            "tail_first_window_photons": first,
            "pre_window_energy": pre,
        }
