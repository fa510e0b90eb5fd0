"""Isolation-boundary-crossing baselines (Table 2)."""

from repro.baselines.boundaries import (
    ALL_MECHANISMS,
    BackendBoundary,
    BoundaryMechanism,
    PublishedBoundary,
    VirtineBoundary,
    spectrum_mechanisms,
)

__all__ = [
    "PublishedBoundary",
    "ALL_MECHANISMS",
    "BoundaryMechanism",
    "VirtineBoundary",
    "BackendBoundary",
    "spectrum_mechanisms",
]
