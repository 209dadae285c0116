"""Stored tilting-character tables for rank 3, their verifiers, and the
step-by-step derivation replayer."""

from .tables import (
    NoTableEntry,
    ParamSpec,
    TableIntegrityError,
    TiltingFamily,
    load_families,
    lookup_tilting_pe3,
)

__all__ = [
    "NoTableEntry",
    "ParamSpec",
    "TableIntegrityError",
    "TiltingFamily",
    "load_families",
    "lookup_tilting_pe3",
]
