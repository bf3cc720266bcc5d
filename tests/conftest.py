"""Shared fixtures."""

import errno
import itertools
import os
import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap a function in every simcert namespace that binds it.

    ``count_calls(func)`` returns a list that grows by one entry per call,
    whichever module the call goes through.
    """

    def install(func):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return func(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is None or not (name == "simcert" or name.startswith("simcert.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
        return calls

    return install


@pytest.fixture
def fail_write(monkeypatch):
    """Make writes to files opened through os.fdopen fail part-way.

    ``fail_write(n)`` lets the first n write calls on each such file through
    and makes the next one raise OSError (no space left on device).
    """

    def install(n):
        fdopen = os.fdopen

        def failing_fdopen(*args, **kwargs):
            fh = fdopen(*args, **kwargs)
            write, calls = fh.write, itertools.count()

            def failing_write(text):
                if next(calls) == n:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return write(text)

            fh.write = failing_write
            return fh

        monkeypatch.setattr(os, "fdopen", failing_fdopen)

    return install
