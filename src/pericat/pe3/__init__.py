"""Stored tilting-character tables for rank 3, their verifiers, and the
step-by-step derivation replayer."""
