"""Suite-wide hooks and fixtures.

Under ``python -X dev`` (``make serve-devmode``) an error that asyncio
reports through its logger, such as a task exception that is never
retrieved or an exception raised in a callback, fails the test it
happened in.  Without dev mode that hook does nothing.

``registry_calls`` records every counter and gauge lookup made on any
metrics registry during a test.
"""

import gc
import logging
import sys

import pytest


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(autouse=True)
def asyncio_errors_fail_the_test():
    if not sys.flags.dev_mode:
        yield
        return
    errors = _Records()
    logger = logging.getLogger("asyncio")
    logger.addHandler(errors)
    try:
        yield
        gc.collect()  # a lost task reports its exception when collected
    finally:
        logger.removeHandler(errors)
    assert not errors.records, "asyncio reported errors:\n" + "\n".join(
        errors.format(record) for record in errors.records
    )


@pytest.fixture()
def registry_calls(monkeypatch):
    """Every ``MetricsRegistry.counter``/``gauge`` call, as ``(metric, labels)``."""
    from repro.obs import MetricsRegistry

    calls = []
    for kind in ("counter", "gauge"):
        lookup = getattr(MetricsRegistry, kind)

        def counted(self, name, help="", _lookup=lookup, **labels):
            calls.append((name, tuple(sorted(labels.items()))))
            return _lookup(self, name, help=help, **labels)

        monkeypatch.setattr(MetricsRegistry, kind, counted)
    return calls
