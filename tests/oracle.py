"""A 60-digit reference for the paper's closed-form cycle ledger, on stdlib ``decimal`` alone.

Every input (n, x_c and the engine's float kappa) is taken as the exact value of its float.
tanh, atanh and the logarithms are built from ``Decimal.exp`` and ``Decimal.ln``, each correctly
rounded at the context's 60 digits, so each returned value is good to far more digits than a
float holds.  With t_c = tanh(x_c) and t_h = kappa t_c:

    W_AB = -(n - 1) t_c        Q_BC = n (t_c - t_h)
    W_CD =  (n - 1) t_h        Q_DA = -(t_c - t_h)

r = x_h / x_c with x_h = atanh(t_h), and the entropy productions are the divergences of the
thermal populations p = ((1 + t)/2, (1 - t)/2): Sigma_e = D(p_c || p_h) and
Sigma_c = D(p_h || p_c).
"""

from decimal import Context, Decimal, localcontext

DIGITS = 60
ONE, TWO = Decimal(1), Decimal(2)

# The engine's ledger against this reference, kept apart from qcore.TOL, whose values the engine
# gates on.  Each bound holds the worst error measured with a margin: over the derandomized
# property of tests/test_oracle.py, 3.0 ulps and 6.0e-14; over 1,600 more seeded operating points
# of the same ranges, 3.7 ulps and 3.2e-13.  W and Q: in ulps of the energy scale max(1, n).
# Sigma: absolute, since near theta_V = 0 the engine's Sigma is a cancellation whose rounding can
# exceed the value itself, and print with the wrong sign.
BOUNDS = {
    "energy_ulps": 8,
    "sigma_abs": 1e-12,
}


def tanh(x):
    """tanh of a Decimal x >= 0, as (1 - e^-2x) / (1 + e^-2x)."""
    e = (-TWO * x).exp()
    return (ONE - e) / (ONE + e)


def atanh(t):
    """atanh of a Decimal t in [0, 1), as ln((1 + t) / (1 - t)) / 2."""
    return ((ONE + t) / (ONE - t)).ln() / TWO


def _divergence(p, q):
    # D(p || q) of two-outcome distributions, 0 ln 0 := 0
    return sum((a * (a.ln() - b.ln()) for a, b in zip(p, q) if a), Decimal(0))


def ledger(n, x_c, kappa):
    """The closed-form ledger at the exact values of the floats n, x_c and kappa, as a dict of
    Decimals: W_AB, Q_BC, W_CD, Q_DA, r, Sigma_e and Sigma_c."""
    with localcontext(Context(prec=DIGITS)):
        n, x_c, kappa = Decimal(n), Decimal(x_c), Decimal(kappa)
        t_c = tanh(x_c)
        t_h = kappa * t_c
        p_c, p_h = (((ONE + t) / TWO, (ONE - t) / TWO) for t in (t_c, t_h))
        return {
            "W_AB": -(n - ONE) * t_c,
            "Q_BC": n * (t_c - t_h),
            "W_CD": (n - ONE) * t_h,
            "Q_DA": -(t_c - t_h),
            "r": atanh(t_h) / x_c,
            "Sigma_e": _divergence(p_c, p_h),
            "Sigma_c": _divergence(p_h, p_c),
        }
