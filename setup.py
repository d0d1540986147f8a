"""Setuptools shim.

The project declares no packaging metadata (there is no ``pyproject.toml``
or ``setup.cfg``, and ``setup()`` below takes no arguments): it runs from a
checkout with ``PYTHONPATH=src`` and needs only the standard library at
runtime.  The file is kept so that tools probing for a ``setup.py`` find a
valid one.
"""

from setuptools import setup

setup()
