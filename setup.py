"""Setup shim: the project metadata lives in setup.cfg.

``pip install -e .`` installs the ``repro`` package from ``src/`` and the
``repro-sim`` console script.  On a machine without the ``wheel``
package, ``python setup.py develop`` does the same.
"""

from setuptools import setup

setup()
