"""Noisy mirror-descent routing-game dynamics with privacy accounting."""

__version__ = "0.1.0"
