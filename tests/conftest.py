import pytest

from ldacert import field


@pytest.fixture(scope="session")
def gauss_F():
    """Functionals of the unit gaussian, closed form."""
    return field.functionals(field.Density.gaussian(1.0, 1.0))


@pytest.fixture(scope="session")
def bump_reference():
    """mpmath value (an mpf) of field._bump_radial_integral(kind, a, b).

    Tanh-sinh on the pieces [0, 0.5, 0.9, 1] at 20 digits; on the cases
    the tests use it agrees with twenty equal pieces at 30 digits to
    double precision.
    """
    import mpmath as mp

    def reference(kind, a, b):
        with mp.workdps(20):
            a, b = mp.mpf(a), mp.mpf(b)
            if kind == "pow":
                f = lambda u: mp.exp(-a / (1 - u * u)) * u * u
            else:
                f = lambda u: (mp.exp(-a * b / (1 - u * u))
                               * (2 * a * u / (1 - u * u) ** 2) ** b * u * u)
            return 4 * mp.pi * mp.quad(f, [0, 0.5, 0.9, 1])

    return reference
