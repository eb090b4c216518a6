"""What every measured process loads before the program: source-only imports
of the program and the host speed probe.

Only the standard library is imported here, so loading this module before
the set-up clock starts adds nothing the clock should see.

**Source-only imports.**  :func:`compile_program_from_source` makes every
module under the program's source tree compile from its ``.py`` file, whatever
``__pycache__`` an earlier test or CLI run left in the tree.  Other modules
(the standard library, numpy) load as usual.  With ``PYTHONDONTWRITEBYTECODE``
set, nothing is written either, so every set-up does the same work.

**Host speed.**  The hosts this runs on change speed by up to 1.8 times over
minutes and by a fifth over seconds, and process CPU time changes with wall
time, so neither more ops nor CPU time remove it.  :func:`probe` times a fixed
kernel of about 15 ms that mixes the kinds of work the engine does.  Probes
taken around a measured interval give its :func:`scale` (:func:`scales` for
a run of ops): the factor that turns its seconds into seconds at the
reference speed, the speed at which the kernel takes :data:`REFERENCE_S`.  The kernel belongs to the
benchmark, so no change to the program changes it.  It imports numpy on its
first run, so a process probes only once its set-up clock has stopped.
"""

import csv
import io
import os
import statistics
import sys
from importlib.machinery import SOURCE_SUFFIXES, FileFinder, SourceFileLoader
from time import perf_counter

#: the program's source tree in this checkout
SOURCE_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
#: kernel time at the reference speed
REFERENCE_S = 0.015


class _SourceOnlyLoader(SourceFileLoader):
    def path_stats(self, path):
        # without the source's stats the loader never looks for bytecode
        raise OSError(path)


def compile_program_from_source() -> None:
    """Load every module under :data:`SOURCE_ROOT` from source, never from bytecode."""
    finder_for = FileFinder.path_hook((_SourceOnlyLoader, SOURCE_SUFFIXES))

    def hook(path: str):
        if path != SOURCE_ROOT and not path.startswith(SOURCE_ROOT + os.sep):
            raise ImportError(path)
        return finder_for(path)

    sys.path_hooks.insert(0, hook)
    sys.path_importer_cache.clear()


#: a fixed CSV text the kernel parses, 200 rows of the employee schema
_CSV_TEXT = "name,gen,edu,exp,salary,bonus\n" + "".join(
    f"E{row:05d},{'FM'[row % 2]},{('BS', 'MS', 'PhD')[row % 3]},{row % 21},"
    f"{90000 + 37 * row:.2f},{9000 + 3.7 * row:.2f}\n"
    for row in range(200)
)


def _kernel() -> None:
    """A little of each kind of work the engine does: interpreter loops,
    allocation, CSV parsing and small numpy arrays."""
    import numpy

    total = 0
    for number in range(50_000):
        total += number * number % 7
    table = {}
    for number in range(10_000):
        table[str(number % 500)] = [number, number + 1, (number, "x")]
    sorted(table.items())
    for _ in range(5):
        rows = list(csv.reader(io.StringIO(_CSV_TEXT)))
        [float(row[4]) for row in rows[1:]]
    values = numpy.linspace(0.0, 1.0, 500) ** 2 % 0.37
    for _ in range(300):
        chosen = values[values > 0.1]
        chosen.sum()
        numpy.argsort(chosen)


def probe(runs: int = 1) -> float:
    """Seconds the kernel takes now (the fastest of ``runs`` runs)."""
    best = float("inf")
    for _ in range(runs):
        started = perf_counter()
        _kernel()
        best = min(best, perf_counter() - started)
    return best


def scale(*probes: float) -> float:
    """Reference seconds per measured second, given probes taken around it."""
    return REFERENCE_S * len(probes) / sum(probes)


def scales(probes: list[float], window: int = 3) -> list[float]:
    """:func:`scale` of each interval between consecutive ``probes``, taken
    from the median of the ``2 * window`` probes nearest it: a single 15 ms
    probe is noisier than the host's drift over a few intervals."""
    return [
        REFERENCE_S / statistics.median(probes[max(0, index + 1 - window):index + 1 + window])
        for index in range(len(probes) - 1)
    ]
