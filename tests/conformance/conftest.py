"""Fixtures for the cross-backend conformance matrix.

``host`` is the heart of the suite: parameterized over every backend
name, it yields a freshly built launcher with a seeded host filesystem,
so each conformance test automatically becomes a five-row matrix.  The
seed is overridable (``REPRO_SEED`` env var) so CI can inject its
run id and still reproduce locally.
"""

import pytest

from repro import env_seed
from repro.host.backend import BACKEND_NAMES, create_host

#: Seeds the backends' seeded state (the container's seccomp chain
#: layout).  CI exports REPRO_SEED=${{ github.run_id }}.
SEED = env_seed(1234)


def make_host(backend_name: str, seed: int = SEED):
    """A fresh launcher for ``backend_name`` with the conformance fs."""
    host = create_host(backend_name, seed=seed)
    host.kernel.fs.add_file("/public/data.txt", b"public")
    host.kernel.fs.add_file("/secret/key.pem", b"PRIVATE KEY")
    return host


@pytest.fixture(params=BACKEND_NAMES)
def backend_name(request):
    return request.param


@pytest.fixture
def host(backend_name):
    return make_host(backend_name)


@pytest.fixture
def caps(host):
    return host.caps
