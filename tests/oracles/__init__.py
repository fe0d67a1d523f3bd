"""Verification oracles: numbers the engine computes, found another way.

Tests import them as ``oracles.<module>``; the survey scripts here run as
``python tests/oracles/<script>.py`` and import their siblings directly.
"""
