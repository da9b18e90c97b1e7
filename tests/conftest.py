"""Every test starts from a cold reaction-coordinate memo.

``rc`` keeps the bias-free part of the last generator line it built.  Tests
that patch an ``rc`` internal (``build_system_hamiltonian``,
``build_rate_operators``, ``AugmentedSystem.lift``, ``MAX_RESTRICTED_DIM``)
or count its calls would otherwise depend on which test ran before them.
"""
import pytest

from nanojunction import rc


@pytest.fixture(autouse=True)
def cold_rc_memo():
    rc._bias_free.cache_clear()
