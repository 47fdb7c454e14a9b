"""Testing utilities: the random Mini-C program generator used by the
property-based differential tests, plus NaN-tolerant output comparison."""

from .. import _lazy_exports

# Comparing outputs does not load the generator; drawing a program does.
_EXPORTS = {
    ".compare": ("outputs_equal", "values_equal", "first_divergence"),
    ".generator": ("ProgramGenerator", "random_source"),
}
__getattr__ = _lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
