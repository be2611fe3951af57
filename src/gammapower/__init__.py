"""Gamma/power combination families: evaluation, critical points, and
numerical certification of their monotonicity and convexity properties."""

from .specfun import *
from .families import *
from .critical import *
from .certify import *

__version__ = "0.1.0"
