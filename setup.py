"""Build script: a pure-Python package; metadata lives in pyproject.toml."""

from setuptools import setup

setup()
