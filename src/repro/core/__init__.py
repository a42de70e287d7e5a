"""TECO public API (the paper's two-line user interface, Listing 1).

>>> from repro.core import check_activation, TecoConfig, TecoSystem
"""

from repro.core.api import TecoConfig, TecoSystem, check_activation, cxl_fence

__all__ = ["TecoConfig", "TecoSystem", "check_activation", "cxl_fence"]
