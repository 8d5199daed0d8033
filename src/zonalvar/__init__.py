"""Variance functionals and uncertainty products of zonal functions on the
unit n-sphere, specialized fast paths for Poisson multipole wavelets, and an
exact-rational engine for their small-scale asymptotic expansions.

The public names are those of each module's ``__all__``, re-exported here."""

from . import asymptotics, errors, laurent, series_s, special_functions, variance, zonal
from .asymptotics import *
from .errors import *
from .laurent import *
from .series_s import *
from .special_functions import *
from .variance import *
from .zonal import *

__version__ = "0.1.0"

__all__ = [
    *asymptotics.__all__,
    *errors.__all__,
    *laurent.__all__,
    *series_s.__all__,
    *special_functions.__all__,
    *variance.__all__,
    *zonal.__all__,
]
