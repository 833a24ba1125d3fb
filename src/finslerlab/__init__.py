"""finslerlab: curvature quantities and identity checks for Finsler metrics.

Define a metric as an expression (or pick a built-in family), and the
package computes its coordinate tensors by exact truncated-Taylor
differentiation, restricts them to the unit-sphere fibres, and verifies the
structural identities they satisfy at sampled points.  The API lives in the
submodules: ``expr``, ``jets``, ``core``, ``volume``, ``zoo``,
``indicatrix``, ``checks`` and ``cli``.
"""

__version__ = "0.1.0"
