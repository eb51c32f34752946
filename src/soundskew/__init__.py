"""Deterministic experiment harness for false-positive skew in name classifiers.

The pipeline: load a name corpus and per-language token inventories, featurize
names as token occurrence counts, median-split a continuous attribute into a
balanced binary label, train cross-validated gradient-boosted tree classifiers,
and analyse the distribution of false-positive errors with skew-adjusted rates
and classical t/F inference.  The modules are the API: import each function
from its module, as in ``from soundskew.runner import run_experiment``.
"""

__version__ = "0.1.0"
