"""Certified error bounds for local-density energy approximations."""

__version__ = "0.1.0"

#: the grid layer's names, re-exported from ldacert.field on first use
#: (PEP 562), so that ``import ldacert`` itself loads no numpy
_FIELD_NAMES = frozenset({
    "Density", "FunctionalSet", "GridSpec", "ScalarField", "functionals",
    "integrate", "read_grid", "scale_functionals", "write_grid",
})

__all__ = sorted(_FIELD_NAMES)


def __getattr__(name):
    if name in _FIELD_NAMES:
        from . import field

        return getattr(field, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
