"""Pluggable kernel backends for the measured hot loops.

``get_backend("python")`` returns the scalar reference implementation;
``get_backend("numpy")`` the batched struct-of-arrays one (requires the
optional ``numpy`` extra). Backends are byte-identical by contract —
see :mod:`repro.kernels.base`. Experiments compute through the python
reference; ``bench/`` measures both, and ``TrafficEngine(backend=)``,
``ChurnDriver(backend=)`` and ``diversity_factory(kernel=)`` take one.
"""

from __future__ import annotations

from typing import Tuple, Union

from .base import KernelBackend
from .python_backend import PythonBackend
from .soa import HopFieldSoA, pad_rows

__all__ = [
    "KernelBackend",
    "PythonBackend",
    "HopFieldSoA",
    "pad_rows",
    "BACKEND_NAMES",
    "numpy_available",
    "available_backends",
    "get_backend",
    "resolve_backend",
]

#: Every backend name the registry knows (available or not).
BACKEND_NAMES: Tuple[str, ...] = ("python", "numpy")

DEFAULT_BACKEND = "python"


def numpy_available() -> bool:
    """True when the optional ``numpy`` extra is installed."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def available_backends() -> Tuple[str, ...]:
    """The backend names :func:`get_backend` can satisfy right now."""
    if numpy_available():
        return BACKEND_NAMES
    return ("python",)


def get_backend(name: str) -> KernelBackend:
    """Construct a fresh backend by registry name."""
    if name == "python":
        return PythonBackend()
    if name == "numpy":
        if not numpy_available():
            raise ValueError(
                "the numpy kernel backend needs the optional numpy extra "
                "(pip install 'repro[numpy]'); the python backend has no "
                "dependencies"
            )
        from .numpy_backend import NumpyBackend

        return NumpyBackend()
    raise ValueError(
        f"unknown kernel backend {name!r}; choose from "
        f"{'|'.join(BACKEND_NAMES)}"
    )


def resolve_backend(
    backend: Union[KernelBackend, str, None]
) -> KernelBackend:
    """Coerce a backend spec (instance, name, or None) to an instance."""
    if backend is None:
        return get_backend(DEFAULT_BACKEND)
    if isinstance(backend, KernelBackend):
        return backend
    return get_backend(backend)
