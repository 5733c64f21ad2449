"""scipy's compiled LAPACK wrappers, without importing scipy.

`import scipy.linalg` runs scipy's array-API layer, which star-imports numpy
and with it numpy.f2py, numpy.testing, numpy.ma and numpy.random: most of a
command's start-up, for the few LAPACK routines the package calls. So the
f2py extension module scipy/linalg/_flapack, which scipy.linalg.lapack
re-exports, is loaded here from its file. The callers pass the arrays that
scipy's own wrappers would, so the same compiled code gives the same bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _load():
    if _NAME in sys.modules:  # scipy.linalg is already imported
        return sys.modules[_NAME]
    scipy = importlib.util.find_spec("scipy")  # runs no scipy code
    for root in (scipy.submodule_search_locations or []) if scipy else []:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_NAME, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                # the extension enters itself in sys.modules; left there it
                # would stand for a scipy.linalg that was never imported
                sys.modules.pop(_NAME, None)
                return module
    from scipy.linalg import _flapack
    return _flapack


flapack = _load()


def routine(name, like):
    """The double-precision LAPACK routine `name` for the dtype of the
    array `like`: d<name> for real data, z<name> for complex."""
    return getattr(flapack, ("z" if like.dtype.kind == "c" else "d") + name)
