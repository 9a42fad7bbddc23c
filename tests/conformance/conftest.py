"""Fixtures for the cross-backend conformance matrix.

``host`` is the heart of the suite: parameterized over every backend
name, it yields a freshly built launcher with a seeded host filesystem,
so each conformance test automatically becomes a five-row matrix.  The
seed is overridable (``CONFORMANCE_SEED`` env var) so CI can inject its
run id and still reproduce locally.
"""

import os

import pytest

from repro.host.backend import BACKEND_NAMES, create_host

#: Seeds the backends' seeded state (the container's seccomp chain
#: layout).  CI exports CONFORMANCE_SEED=${{ github.run_id }}.
CONFORMANCE_SEED = int(os.environ.get("CONFORMANCE_SEED", "1234"))


def make_host(backend_name: str, seed: int = CONFORMANCE_SEED, **options):
    """A fresh launcher for ``backend_name`` with the conformance fs
    (``options`` go to :func:`create_host`: ``trace``, ``telemetry``...)."""
    host = create_host(backend_name, seed=seed, **options)
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
