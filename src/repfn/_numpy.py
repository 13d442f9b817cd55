"""NumPy, imported on its first attribute access.

Parsing arguments and the witness construction use no NumPy, and importing
it is most of a short command's run time, so the modules of this package take
``np`` from here instead of importing NumPy themselves.  If NumPy is already
imported, ``np`` is that module.  Otherwise a lazy module is registered in
``sys.modules``, so NumPy's own imports of itself, and user code that imports
NumPy later, find the one module, which loads on first use.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy_numpy():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


np = _lazy_numpy()
