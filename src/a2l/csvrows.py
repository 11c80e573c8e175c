"""The one CSV row formatter: it writes the files of ``harness.run``, line
by line from each run's header and columns (``*_csv_columns``), and the
lines of ``dynamics.trajectory_csv_lines``.

Float columns print with ``%.17g`` (round-trip exact; nan, inf and -0
print as ``nan``, ``inf`` and ``-0``), integer columns with ``%d``.

The formatter is private to the package so that call tracing (perfbench's
tracer wraps public names only) charges its time to the public writer that
calls it.
"""

from __future__ import annotations

import numpy as np


# Rows converted to Python numbers at a time; bounds the memory held.
_CHUNK_ROWS = 1024


def _csv_lines(header, columns):
    """Yield the header line, then one line per row of the equal-length
    columns."""
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join("%d" if c.dtype.kind in "iub" else "%.17g" for c in columns)
    yield ",".join(header)
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        rows = (c[start:start + _CHUNK_ROWS].tolist() for c in columns)
        for row in zip(*rows):
            yield fmt % row
