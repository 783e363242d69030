"""Dataset generation and ingestion for the experiment harness."""

from __future__ import annotations

import csv
import logging
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .queries import Dataset

log = logging.getLogger(__name__)

#: Zipf samples are truncated here before the modulo fold, so that the
#: sampler terminates on heavy tails without visibly distorting the shape.
ZIPF_TRUNCATION_FACTOR = 1_000_000


def gen_dataset(dist: str, n: int, domain_size: int, seed, a: float = 1.5) -> Dataset:
    """n synthetic values over {0..U} from a named distribution.

    - ``unif``:  uniform over the domain.
    - ``zipf``:  pmf proportional to x^-a (a > 1), folded into the domain
                 by modulo so that low values keep the greatest mass.
    - ``gauss``: rounded normal with mu = sigma = U/5, clamped to [0, U].
    """
    rng = np.random.default_rng(seed)
    span = domain_size + 1  # values in {0..U}
    if dist == "unif":
        values = rng.integers(0, span, size=n)
    elif dist == "zipf":
        if a <= 1:
            raise ParameterError("zipf exponent must exceed 1")
        values = np.minimum(rng.zipf(a, size=n), ZIPF_TRUNCATION_FACTOR * span)
        values = values % span
    elif dist == "gauss":
        mu = domain_size / 5.0
        values = np.clip(np.rint(rng.normal(mu, mu, size=n)), 0, domain_size)
    else:
        raise ParameterError(f"unknown distribution {dist!r}")
    return Dataset(values.astype(np.int64))


def load_csv(path, column, cap: int | None = None) -> Dataset:
    """One numeric column of a CSV file, clamped to [0, cap].

    ``column`` selects by header name or by 0-based index. Non-numeric
    rows (including a header row when selecting by index) are skipped and
    tallied in a warning.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))

    idx = None
    if isinstance(column, int) or (isinstance(column, str) and column.isdigit()):
        idx = int(column)
    elif rows:
        header = rows[0]
        if column in header:
            idx = header.index(column)
            rows = rows[1:]
    if idx is None:
        raise KeyError(f"column {column!r} not found in {path}")

    values = []
    skipped = 0
    for row in rows:
        try:
            v = float(row[idx])
        except (ValueError, IndexError):
            skipped += 1
            continue
        v = int(round(v))
        if v < 0:
            v = 0
        if cap is not None and v > cap:
            v = cap
        values.append(v)
    if skipped or not values:
        log.warning(
            "loaded %d values from %s (skipped %d non-numeric rows)",
            len(values), path, skipped,
        )
    return Dataset(np.asarray(values, dtype=np.int64))
