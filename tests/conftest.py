"""Shared fixtures."""

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
