"""Abstract syntax tree for Mini-C.

Every expression node carries a ``ty`` slot which the semantic analyzer
(:mod:`repro.frontend.sema`) fills in with ``"int"`` or ``"float"``; the
IR builder relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from .errors import SourceLocation
from .tokens import TokenKind

# Scalar type names used throughout the compiler.
INT = "int"
FLOAT = "float"
VOID = "void"

# Binary operators by precedence, loosest first, as in C; every one
# associates to the left.  The parser climbs this table and the
# pretty-printer parenthesizes by it (``Binary.op`` is the kind's value).
BINARY_PRECEDENCE = {
    TokenKind.OR: 1,
    TokenKind.AND: 2,
    TokenKind.EQ: 3,
    TokenKind.NE: 3,
    TokenKind.LT: 4,
    TokenKind.LE: 4,
    TokenKind.GT: 4,
    TokenKind.GE: 4,
    TokenKind.PLUS: 5,
    TokenKind.MINUS: 5,
    TokenKind.STAR: 6,
    TokenKind.SLASH: 6,
    TokenKind.PERCENT: 6,
}


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for all expression nodes."""

    location: SourceLocation
    ty: Optional[str] = field(default=None, init=False, compare=False)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class Name(Expr):
    """A reference to a scalar variable (or a bare array name as a call arg)."""

    name: str = ""


@dataclass
class Index(Expr):
    """An array element access ``a[i]`` or ``a[i][j]``."""

    name: str = ""
    indices: List[Expr] = field(default_factory=list)


@dataclass
class Binary(Expr):
    """A binary operation; ``op`` is the surface operator text (``+``, ``<=``, ``&&`` ...)."""

    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Unary(Expr):
    """A unary operation: ``-`` (negation) or ``!`` (logical not)."""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Call(Expr):
    """A function call; usable both as an expression and as a statement."""

    callee: str = ""
    args: List[Expr] = field(default_factory=list)


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for all statement nodes."""

    location: SourceLocation


@dataclass
class VarDecl(Stmt):
    """A variable declaration, scalar or array.

    ``dims`` is empty for scalars, otherwise a list of one or two constant
    extents.  ``init`` (scalars only) is an optional initializer expression.
    """

    name: str = ""
    base_type: str = INT
    dims: List[int] = field(default_factory=list)
    init: Optional[Expr] = None

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def size(self) -> int:
        """Number of elements (1 for scalars)."""
        total = 1
        for extent in self.dims:
            total *= extent
        return total


@dataclass
class Assign(Stmt):
    """``target = value;`` where target is a scalar name or array element."""

    target: Union[Name, Index] = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: List[Stmt] = field(default_factory=list)


@dataclass
class For(Stmt):
    """``for (init; cond; update) body`` with assignment init/update clauses."""

    init: Optional[Assign] = None
    cond: Optional[Expr] = None
    update: Optional[Assign] = None
    body: List[Stmt] = field(default_factory=list)


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Print(Stmt):
    value: Expr = None  # type: ignore[assignment]


@dataclass
class ExprStmt(Stmt):
    """A bare call used for its side effects: ``f(x);``."""

    call: Call = None  # type: ignore[assignment]


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------


@dataclass
class Param:
    """A formal parameter.  ``dims`` non-empty means an array parameter.

    One-dimensional array parameters are passed by reference (the argument
    is the base address).  Two-dimensional array parameters carry their
    column extent in ``dims[1]`` (``dims[0]`` is 0, meaning "unspecified").
    """

    name: str
    base_type: str
    location: SourceLocation
    dims: List[int] = field(default_factory=list)

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass
class FuncDecl:
    """A function definition."""

    name: str
    ret_type: str
    params: List[Param]
    body: List[Stmt]
    location: SourceLocation


@dataclass
class Program:
    """A whole Mini-C translation unit: globals plus function definitions."""

    globals: List[VarDecl] = field(default_factory=list)
    functions: List[FuncDecl] = field(default_factory=list)
