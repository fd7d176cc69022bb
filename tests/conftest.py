import pytest

import oracles


@pytest.fixture(scope="session")
def tables_1e6():
    """Shared mu/phi/omega tables up to 10^6 (built once per session)."""
    return oracles.arith_tables(10**6)
