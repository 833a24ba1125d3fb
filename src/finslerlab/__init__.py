"""finslerlab: curvature quantities and identity checks for Finsler metrics.

Define a metric as an expression (or pick a built-in family), and the
package computes its coordinate tensors by exact truncated-Taylor
differentiation, restricts them to the unit-sphere fibres, and verifies the
structural identities they satisfy at sampled points.  The API lives in the
submodules: ``expr``, ``jets``, ``core``, ``volume``, ``zoo``,
``indicatrix``, ``checks`` and ``cli``.  Every error an input can cause is
an :class:`InputFault`.
"""

__version__ = "0.1.0"


class InputFault(ValueError):
    """The input is not a Finsler problem finslerlab can compute: a bad
    expression, parameter, dimension or volume form, or a sampled point where
    the metric is not Finsler.  The CLI exits 2 on every one; a library caller
    can catch this one class."""
