"""iloc intermediate representation and the AST -> PDG builder."""

from .iloc import Instr, Op, Reg, Symbol, preg, vreg

__all__ = ["Instr", "Op", "Reg", "Symbol", "preg", "vreg"]
