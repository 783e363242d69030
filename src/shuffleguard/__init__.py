"""shuffleguard: a shuffle-model DP protocol simulator with
poisoning-attack defenses and an experiment harness."""

from . import defense, errors, harness, noise, protocols, queries, runtime

__version__ = "0.1.0"
