"""Scalar reference implementations the production engines are
differentially tested against.

Each oracle is the plain per-element loop a vectorized engine in
``src/`` replaced; tests require the engine to match it exactly.
"""
