"""The Program Dependence Graph: regions, predicates, analyses."""

from .graph import GlobalVar, Module, ParamInfo, PDGFunction
from .nodes import Predicate, Region

__all__ = [
    "Region",
    "Predicate",
    "PDGFunction",
    "Module",
    "GlobalVar",
    "ParamInfo",
]
