"""Line-oriented instance files: `key = value` with polynomial text syntax.

```
field = GF(32003)
vars = x, y, z
order = grevlex
I = x^2, x*y, y^2
a = x^2 + y^2, x*y
family = power
seed = 42
```

`a = ...` may be replaced by `s = <int>` to request seeded generic
general-element selection.
"""

from __future__ import annotations

import re

from .field import FieldSpec, DEFAULT_PRIME
from .ring import IDENT_RE, MonomialOrder, PolyRing
from .ideals import Ideal
from .residual import ResidualInstance, generic_generators

KNOWN_KEYS = {"field", "vars", "order", "I", "a", "s", "family", "seed"}


class InstanceParseError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InstanceValidationError(ValueError):
    pass


def parse_field(text: str) -> FieldSpec:
    text = text.strip()
    if text in ("QQ", "Q", "q"):
        return FieldSpec(0)
    m = re.fullmatch(r"GF\((\d+)\)", text)
    if m is None:
        m = re.fullmatch(r"p(\d+)", text)
    if m is None:
        raise ValueError(f"unknown field {text!r}; expected QQ or GF(p)")
    p = int(m.group(1))
    if p == 0:
        raise ValueError(f"field {text!r} has characteristic 0; write QQ for the rationals")
    return FieldSpec(p)


def parse_order(text: str) -> MonomialOrder:
    text = text.strip()
    if text in ("lex", "grevlex"):
        return MonomialOrder(text)
    m = re.fullmatch(r"block\((\d+)\)", text)
    if m:
        return MonomialOrder("block", int(m.group(1)))
    raise ValueError(f"unknown monomial order {text!r}")


def parse_instance(text: str) -> ResidualInstance:
    """Parse and validate an instance file."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InstanceParseError(f"expected `key = value`, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise InstanceParseError(f"unknown key {key!r}", lineno)
        if key in values:
            raise InstanceParseError(f"duplicate key {key!r}", lineno)
        values[key] = (value.strip(), lineno)

    def get(key, default=None):
        return values[key][0] if key in values else default

    for required in ("vars", "I"):
        if required not in values:
            raise InstanceParseError(f"missing required key {required!r}")
    if "a" not in values and "s" not in values:
        raise InstanceParseError("one of `a` or `s` is required")
    if "a" in values and "s" in values:
        raise InstanceParseError("`a` and `s` are mutually exclusive")

    try:
        field = parse_field(get("field", f"GF({DEFAULT_PRIME})"))
    except ValueError as exc:
        raise InstanceParseError(str(exc), values["field"][1]) from exc
    try:
        order = parse_order(get("order", "grevlex"))
    except ValueError as exc:
        raise InstanceParseError(str(exc), values["order"][1]) from exc
    raw_vars, vars_line = values["vars"]
    names = [v.strip() for v in raw_vars.split(",") if v.strip()]
    if not names:
        raise InstanceParseError("`vars` names no variable", vars_line)
    for name in names:
        if not IDENT_RE.fullmatch(name):
            raise InstanceParseError(f"bad variable name {name!r}", vars_line)
    try:
        ring = PolyRing(field, tuple(names), order)
    except ValueError as exc:
        raise InstanceParseError(str(exc), vars_line) from exc

    def parse_polys(key):
        raw, lineno = values[key]
        try:
            return [ring.parse(p) for p in raw.split(",") if p.strip()]
        except ValueError as exc:
            raise InstanceParseError(f"bad polynomial in {key!r}: {exc}", lineno) from exc

    def parse_int(key, minimum=None):
        raw, lineno = values[key]
        try:
            value = int(raw)
        except ValueError:
            raise InstanceParseError(f"bad integer in {key!r}: {raw!r}", lineno) from None
        if minimum is not None and value < minimum:
            raise InstanceParseError(f"{key!r} must be >= {minimum}, got {value}", lineno)
        return value

    seed = parse_int("seed") if "seed" in values else 0
    family = get("family", "custom")
    I = Ideal(ring, parse_polys("I"))
    if not I.is_homogeneous():
        raise InstanceValidationError("I is not homogeneous")

    if "a" in values:
        a_gens = tuple(parse_polys("a"))
        for g in a_gens:
            if not I.contains(g):
                raise InstanceValidationError("a not contained in I")
        s = len(a_gens)
    else:
        s = parse_int("s", minimum=0)
        a_gens = tuple(generic_generators(I, s, seed=seed))
    return ResidualInstance(ring, I, a_gens, s, seed=seed, family_tag=family)


def format_instance(inst: ResidualInstance) -> str:
    """Canonical text rendering; reparses to an equal instance."""
    lines = [
        f"field = {inst.ring.field}",
        f"vars = {', '.join(inst.ring.variables)}",
        f"order = {inst.ring.order}",
        f"I = {', '.join(str(g) for g in inst.I.generators)}",
        f"a = {', '.join(str(g) for g in inst.a_gens)}",
        f"family = {inst.family_tag}",
        f"seed = {inst.seed}",
    ]
    return "\n".join(lines) + "\n"
