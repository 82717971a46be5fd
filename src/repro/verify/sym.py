"""The MVTV symbolic expression domain.

Expressions are immutable, hashable trees built from Python literals
(``int``, ``str``, ``None``, ``bool``) and tuples whose first element
names the node kind.  Every constructor canonicalises on the way in, so
two different derivations of the same value — e.g. the codegen's
batched ``cyc += 2 * bc`` against the reference's two unit additions,
or an ``if/else`` cycle merge against a factored conditional term —
produce *structurally identical* trees, and summary equivalence is
plain ``==``.

Canonical forms:

* sums are linear combinations ``("+", const, ((term, coeff), ...))``
  with terms sorted and coefficients merged (subtraction is a ``-1``
  coefficient, ``n * bc`` folds into the coefficient);
* commutative bitwise/compare operators sort their operands;
* conditionals factor out the additive part common to both arms
  (``ite(c, x + a, x + b) == x + ite(c, a, b)``), which reconciles the
  generated ``if/else`` merge shape with the reference's additive form;
* boolean negation is pushed into comparisons (``not (a < b)`` is
  ``b <= a``).
"""

from __future__ import annotations

M32 = 0xFFFFFFFF
SIGN = 0x80000000


def _is_int(e) -> bool:
    return isinstance(e, int) and not isinstance(e, bool)


def _key(e) -> str:
    """Deterministic total order over expression trees."""
    return repr(e)


def sym(name: str):
    return ("s", name)


# ---------------------------------------------------------------------------
# linear arithmetic
# ---------------------------------------------------------------------------

def _linear(e):
    """Decompose into ``(const, {term: coeff})``."""
    if _is_int(e):
        return e, {}
    if isinstance(e, tuple) and e and e[0] == "+":
        return e[1], dict(e[2])
    return 0, {e: 1}


def _from_linear(const, terms):
    items = tuple(sorted(((t, c) for t, c in terms.items() if c),
                         key=lambda tc: _key(tc[0])))
    if not items:
        return const
    if const == 0 and len(items) == 1 and items[0][1] == 1:
        return items[0][0]
    return ("+", const, items)


def add(*parts):
    const = 0
    terms = {}
    for p in parts:
        c, ts = _linear(p)
        const += c
        for t, k in ts.items():
            terms[t] = terms.get(t, 0) + k
    return _from_linear(const, terms)


def mul_const(e, k: int):
    if k == 0:
        return 0
    const, terms = _linear(e)
    return _from_linear(const * k, {t: c * k for t, c in terms.items()})


def sub(a, b):
    return add(a, mul_const(b, -1))


# ---------------------------------------------------------------------------
# bitwise
# ---------------------------------------------------------------------------

def _bitop(op, pyfn, a, b):
    if _is_int(a) and _is_int(b):
        return pyfn(a, b)
    x, y = sorted((a, b), key=_key)
    return (op, x, y)


def and_(a, b):
    return _bitop("&", lambda x, y: x & y, a, b)


def or_(a, b):
    return _bitop("|", lambda x, y: x | y, a, b)


def xor(a, b):
    return _bitop("^", lambda x, y: x ^ y, a, b)


def mask32(e):
    return and_(e, M32)


def shl(a, b):
    if _is_int(a) and _is_int(b):
        return a << b
    return ("<<", a, b)


def shr(a, b):
    if _is_int(a) and _is_int(b):
        return a >> b
    return (">>", a, b)


# ---------------------------------------------------------------------------
# booleans and comparisons
# ---------------------------------------------------------------------------

def _cmp(op, pyfn, a, b, commutative=False):
    if (_is_int(a) or isinstance(a, str)) and type(a) is type(b):
        return pyfn(a, b)
    if commutative:
        a, b = sorted((a, b), key=_key)
    return (op, a, b)


def eq(a, b):
    if a is None or b is None:
        if a is None and b is None:
            return True
        other = a if b is None else b
        return isnone(other)
    return _cmp("==", lambda x, y: x == y, a, b, commutative=True)


def ne(a, b):
    if a is None or b is None:
        return not_(eq(a, b))
    return _cmp("!=", lambda x, y: x != y, a, b, commutative=True)


def lt(a, b):
    return _cmp("<", lambda x, y: x < y, a, b)


def le(a, b):
    return _cmp("<=", lambda x, y: x <= y, a, b)


def isnone(e):
    if e is None:
        return True
    if isinstance(e, (int, str)):
        return False
    return ("isnone", e)


def notnone(e):
    if e is None:
        return False
    if isinstance(e, (int, str)):
        return True
    return ("notnone", e)


def notin(a, values):
    """``a not in values`` over a constant set of ints (sorted)."""
    values = tuple(sorted(values))
    if _is_int(a):
        return a not in values
    return ("notin", a, values)


def b2i(c):
    if c is True:
        return 1
    if c is False:
        return 0
    return ("b2i", c)


def _junction(op, unit, conds):
    """Flattened ``band``/``bor``: *unit* is dropped, its negation wins."""
    out = []
    for c in conds:
        if c is unit:
            continue
        if c is (not unit):
            return not unit
        if isinstance(c, tuple) and c and c[0] == op:
            out.extend(c[1])
        else:
            out.append(c)
    if not out:
        return unit
    if len(out) == 1:
        return out[0]
    return (op, tuple(out))


def band(*conds):
    return _junction("band", True, conds)


def bor(*conds):
    return _junction("bor", False, conds)


_NEG = {"==": "!=", "!=": "==", "isnone": "notnone", "notnone": "isnone"}


def not_(c):
    if c is True:
        return False
    if c is False:
        return True
    if isinstance(c, tuple):
        op = c[0]
        if op in _NEG:
            return (_NEG[op],) + tuple(c[1:])
        if op == "<":
            return ("<=", c[2], c[1])
        if op == "<=":
            return ("<", c[2], c[1])
        if op == "not":
            return truth(c[1])
    return ("not", c)


_BOOL_OPS = frozenset(("==", "!=", "<", "<=", "band", "bor", "not",
                       "isnone", "notnone", "notin", "ite"))


def truth(e):
    """Boolean value of *e* in an ``if`` context."""
    if isinstance(e, bool):
        return e
    if _is_int(e):
        return e != 0
    if isinstance(e, tuple) and e[0] in _BOOL_OPS:
        return e
    return ne(e, 0)


# ---------------------------------------------------------------------------
# conditionals (with additive factoring)
# ---------------------------------------------------------------------------

def ite(c, t, f):
    if c is True:
        return t
    if c is False:
        return f
    if t == f:
        return t
    tc, tt = _linear(t)
    fc, ft = _linear(f)
    com_const = tc if tc == fc else 0
    com_terms = {term: k for term, k in tt.items() if ft.get(term) == k}
    if com_const or com_terms:
        rt = _from_linear(tc - com_const,
                          {k: v for k, v in tt.items() if k not in com_terms})
        rf = _from_linear(fc - com_const,
                          {k: v for k, v in ft.items() if k not in com_terms})
        return add(_from_linear(com_const, com_terms), ite(c, rt, rf))
    return ("ite", c, t, f)


def alu(mnemonic: str, a, b):
    """Opaque ALU application (muldiv ops dispatched to ``alu.REG_OPS``)."""
    return ("alu", mnemonic, a, b)


# ---------------------------------------------------------------------------
# rendering (findings, goldens)
# ---------------------------------------------------------------------------

def render(e) -> str:
    if e is None:
        return "None"
    if isinstance(e, bool):
        return "true" if e else "false"
    if _is_int(e):
        return str(e) if -4096 < e < 4096 else hex(e & (2 ** 64 - 1))
    if isinstance(e, str):
        return repr(e)
    if not isinstance(e, tuple) or not e:
        return repr(e)
    op = e[0]
    if not isinstance(op, str):
        # A plain value tuple (a note_run schedule), not an expression.
        return "(" + " ".join(render(x) for x in e) + ")"
    if op == "s":
        return e[1]
    if op == "+":
        parts = [str(e[1])] if e[1] else []
        for term, coeff in e[2]:
            parts.append(render(term) if coeff == 1
                         else f"{coeff}*{render(term)}")
        return "(+ " + " ".join(parts) + ")"
    if op in ("band", "bor"):
        word = "and" if op == "band" else "or"
        return f"({word} " + " ".join(render(c) for c in e[1]) + ")"
    return "(" + " ".join([op] + [render(x) for x in e[1:]]) + ")"
