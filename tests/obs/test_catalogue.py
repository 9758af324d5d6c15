"""The metric catalogue documents every declared series.

Every :class:`~repro.obs.Series` a module of ``repro`` declares (at
module level, on a class, or in a table of either) must have a row in
the catalogue of ``docs/observability.md``.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import repro
from repro.obs import Series

CATALOGUE = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
_ROW = re.compile(r"^\| `(repro_[a-z_]+)` \|", re.MULTILINE)


def catalogue_rows() -> set:
    return set(_ROW.findall(CATALOGUE.read_text()))


def _series_in(value, depth: int = 0):
    if isinstance(value, Series):
        yield value
    elif depth < 2 and isinstance(value, dict):
        for item in value.values():
            yield from _series_in(item, depth + 1)
    elif depth < 2 and isinstance(value, (tuple, list)):
        for item in value:
            yield from _series_in(item, depth + 1)


def declared_series() -> dict:
    """Family name -> the modules declaring a series of it."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            owned = isinstance(value, type) and value.__module__ == module.__name__
            for item in vars(value).values() if owned else (value,):
                for series in _series_in(item):
                    found.setdefault(series.name, set()).add(info.name)
    return found


def test_every_declared_series_has_a_catalogue_row():
    declared = declared_series()
    # The scan reaches class tables, module constants and tuple entries.
    for name in (
        "repro_serve_requests_total",
        "repro_dynamic_epochs_total",
        "repro_profiler_cache_hits_total",
        "repro_span_seconds",
    ):
        assert name in declared
    rows = catalogue_rows()
    missing = {name: sorted(where) for name, where in declared.items() if name not in rows}
    assert not missing, f"series without a row in {CATALOGUE.name}: {missing}"
