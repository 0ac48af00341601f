"""Setup shim for environments without the ``wheel`` package.

All project metadata lives in ``pyproject.toml``; ``pip install -e .``
is the normal install. ``pip`` editable installs need ``wheel``, so
where it is missing (an offline box with a bare setuptools) install
through this shim instead::

    python setup.py develop
"""

from setuptools import setup

setup()
