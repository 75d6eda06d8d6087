"""covspectrum: spectral statistics of normalized sample covariance matrices.

The library studies p x n data matrices with i.i.d. standardized entries
in the regime where p/n is small: the normalized Gram matrix
(X X' - n I) / (2 sqrt(np)) has spectrum concentrating on [-1, 1] with a
semicircle profile and largest eigenvalue near 1.

Modules:

* ``ensemble``  -- seeded generation of standardized data matrices;
* ``normalize`` -- the matrix constructions and the truncation report;
* ``spectral``  -- eigenvalues, the semicircle law and its exact KS distance;
* ``momentlab`` -- exact combinatorial oracles for trace moments;
* ``harness``   -- reproducible Monte Carlo sweeps;
* ``reports``   -- sweep records, their CSV/JSON/SVG forms and statistics;
* ``cli``       -- the covspectrum command-line tool.
"""

__version__ = "0.1.0"

from . import ensemble, errors, harness, momentlab, normalize, reports, spectral

__all__ = [
    "__version__",
    "ensemble",
    "errors",
    "harness",
    "momentlab",
    "normalize",
    "reports",
    "spectral",
]
