"""Dataset generation and ingestion for the experiment harness."""

from __future__ import annotations

import csv
import logging
import math
from pathlib import Path

import numpy as np

from .errors import DomainError, ParameterError
from .queries import Dataset

log = logging.getLogger(__name__)

#: Zipf samples are truncated here before the modulo fold, so that the
#: sampler terminates on heavy tails without visibly distorting the shape.
ZIPF_TRUNCATION_FACTOR = 1_000_000

#: The exponent a of the zipf distribution.
ZIPF_EXPONENT = 1.5


def gen_dataset(dist: str, n: int, domain_size: int, seed) -> Dataset:
    """n synthetic values over {0..U} from a named distribution.

    - ``unif``:  uniform over the domain.
    - ``zipf``:  pmf proportional to x^-a (a = ``ZIPF_EXPONENT``), folded
                 into the domain by modulo so that low values keep the
                 greatest mass.
    - ``gauss``: rounded normal with mu = sigma = U/5, clamped to [0, U].
    """
    rng = np.random.default_rng(seed)
    span = domain_size + 1  # values in {0..U}
    if dist == "unif":
        values = rng.integers(0, span, size=n)
    elif dist == "zipf":
        values = np.minimum(
            rng.zipf(ZIPF_EXPONENT, size=n), ZIPF_TRUNCATION_FACTOR * span
        )
        values = values % span
    elif dist == "gauss":
        mu = domain_size / 5.0
        values = np.clip(np.rint(rng.normal(mu, mu, size=n)), 0, domain_size)
    else:
        raise ParameterError(f"unknown distribution {dist!r}")
    return Dataset(values.astype(np.int64))


def load_csv(path, column, cap: int) -> Dataset:
    """One numeric column of a CSV file, clamped to [0, cap].

    ``column`` selects by header name or by 0-based index; a bool or a
    negative index is a ParameterError. So is a file that cannot be
    opened or read as CSV text, a name that is not in the header, or a
    column of a non-empty file that gives no number, each named by its
    flag (``--data``, ``--col``) and the path; an empty file loads no
    values, with a warning. Non-numeric rows (including a header row
    when selecting by index) are skipped and tallied in a warning; a
    non-finite number (nan, inf, or one too large for a float) is an
    error naming its row.
    """
    # Python would read -1 as the last column, and True as column 1.
    if isinstance(column, bool) or (isinstance(column, int) and column < 0):
        raise ParameterError(
            f"column index must be a nonnegative integer, got {column!r}"
        )
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParameterError(f"--data {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, csv.Error) as exc:  # not a text CSV file
        raise ParameterError(f"--data {path}: {exc}") from None

    idx = None
    first_row = 1  # the file row of rows[0], counting from 1
    nonempty = any(rows)
    if isinstance(column, int) or (isinstance(column, str) and column.isdigit()):
        idx = int(column)
    elif rows:
        header = rows[0]
        if column in header:
            idx = header.index(column)
            rows = rows[1:]
            first_row = 2
    if idx is None:
        raise ParameterError(f"--col {column!r} not found in --data {path}")

    values = []
    skipped = 0
    for lineno, row in enumerate(rows, start=first_row):
        try:
            v = float(row[idx])
        except (ValueError, IndexError):
            skipped += 1
            continue
        if not math.isfinite(v):
            raise DomainError(
                f"{path} row {lineno}: value {row[idx]!r} is not finite"
            )
        v = int(round(v))
        values.append(min(max(v, 0), cap))
    if nonempty and not values:
        raise ParameterError(
            f"--col {column!r} not found in --data {path}: no row has a "
            f"number there"
        )
    if skipped or not values:
        log.warning(
            "loaded %d values from %s (skipped %d non-numeric rows)",
            len(values), path, skipped,
        )
    return Dataset(np.asarray(values, dtype=np.int64))
