"""Flat feature structures over declared finite attribute domains.

A feature structure is a finite mapping from attribute names to value
cells.  A cell is either a non-empty subset of the attribute's domain or
a variable shared with other cells.  An absent attribute means "fully
underspecified": it behaves like the full domain, so the indefinite
degree of determination, for instance, is simply the absence of the
determination attributes.

Unification intersects subsets attribute by attribute and fails exactly
when some intersection comes out empty.  Sets with more than one member
are how material shared between dialects is written down: a determiner
carrying ``lan:{GP,MQ}`` belongs to Guadeloupean and Martinican alike
and narrows to one dialect only when the derivation forces it.

Structures are immutable values; every operation is pure.  Variable
bindings live in a separate :class:`Bindings` environment threaded by
the caller (one per derivation), never inside the structure itself.

Unification checks no schema.  A structure is checked once, where it
enters (grammar material at load, goals by :meth:`Schema.check`), so
an undeclared attribute is rejected, never read as the full domain.

A schema also lays its attributes out as bit fields of one int, one bit
per value and a zero guard bit above each field (Aït-Kaci et al., TOPLAS
1989).  :meth:`Schema.code` encodes a structure (absent or unbound: a full
field) and :meth:`Schema.clash` is :func:`disjoint`'s test on two codes,
worth its encoding only where one code is tested many times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .errors import UndeclaredAttribute


@dataclass(frozen=True)
class AttributeDomain:
    """A named attribute together with its ordered finite value set."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("domain %r has no values" % self.name)
        if len(set(self.values)) != len(self.values):
            raise ValueError("domain %r repeats a value" % self.name)


class Schema:
    """The set of declared attribute domains of one grammar."""

    def __init__(self, domains: Iterable[AttributeDomain]):
        self._domains: dict[str, AttributeDomain] = {}
        self._bits: dict[str, dict] = {}  # attr -> value -> its bit
        self._masks: dict = {}  # (attr, cell) -> the code of {attr: cell}
        self._full = self._guards = 0
        for dom in domains:
            if dom.name in self._domains:
                raise ValueError("attribute %r declared twice" % dom.name)
            self._domains[dom.name] = dom
            offset = self._guards.bit_length()  # above the last guard
            self._bits[dom.name] = {v: 1 << (offset + i)
                                    for i, v in enumerate(dom.values)}
            self._full |= sum(self._bits[dom.name].values())
            self._guards |= 1 << (offset + len(dom.values))

    def __contains__(self, attr: str) -> bool:
        return attr in self._domains

    def __iter__(self):
        return iter(self._domains.values())

    def domain(self, attr: str) -> AttributeDomain:
        try:
            return self._domains[attr]
        except KeyError:
            raise UndeclaredAttribute("attribute %r is not declared" % attr) from None

    def full(self, attr: str) -> frozenset:
        return frozenset(self.domain(attr).values)

    def sort_key(self, attr: str):
        """A sort key that puts values of `attr` in declaration order, the
        order of their bits; an undeclared value raises KeyError."""
        return self._bits[self.domain(attr).name].__getitem__

    def check(self, fs: "FeatureStruct") -> None:
        """Raise UndeclaredAttribute if fs mentions an unknown attribute."""
        for attr in fs:
            self.domain(attr)

    def code(self, fs: "FeatureStruct", env: "Bindings") -> int:
        """fs as bit fields, its variables resolved through env.  The code
        of fs's constants and its variable cells are kept on fs, for the
        schema that coded it last."""
        kept = fs._code
        if kept is None or kept[0] is not self:
            code, cells = self._full, ()
            for item in fs._items:
                if isinstance(item[1], Var):
                    cells += (item,)
                else:
                    code &= self._masks.get(item) or self._mask(*item)
            fs._code = self, code, cells
        else:
            _, code, cells = kept
        for attr, var in cells:
            if (cell := env.value(var)) is not None:
                code &= self._masks.get((attr, cell)) or self._mask(attr, cell)
        return code

    def _mask(self, attr, cell) -> int:  # first use: a Grammar() is not validated
        bits = self._bits[self.domain(attr).name]
        if not cell <= bits.keys():
            raise UndeclaredAttribute("%r is not a value of %r" % (
                min(cell - bits.keys()), attr))
        return self._masks.setdefault((attr, cell), self._full - sum(
            bits.values()) + sum(map(bits.get, cell)))

    def clash(self, a: int, b: int) -> bool:
        """Whether a & b has an empty field: adding the full fields carries
        into a field's guard bit exactly when the field is not empty."""
        return ((a & b) + self._full) & self._guards != self._guards


@dataclass(frozen=True)
class Var:
    """A variable cell; all cells carrying the same Var share one value."""

    name: str

    def __repr__(self):
        return "$" + self.name


class Bindings:
    """Immutable variable environment: name -> subset or alias name.

    Each class of aliased variables has one root, which maps to the
    class's subset or is absent while unbound, and every other member
    maps straight to the root's name: :meth:`root` and :meth:`value`
    follow at most one hop.  :func:`unify` keeps that when it merges two
    classes, by repointing the members of the class it absorbs."""

    __slots__ = ("_map",)

    def __init__(self):
        self._map = {}

    @classmethod
    def _of(cls, mapping: dict) -> "Bindings":
        """Adopts `mapping`, whose aliases name roots, without a copy."""
        env = object.__new__(cls)
        env._map = mapping
        return env

    def root(self, name: str) -> str:
        val = self._map.get(name)
        return val if isinstance(val, str) else name

    def value(self, var: Var) -> Optional[frozenset]:
        """The subset a variable is bound to, or None while unbound."""
        val = self._map.get(var.name)
        return self._map.get(val) if isinstance(val, str) else val

    def bind(self, name: str, value) -> "Bindings":
        new = dict(self._map)
        new[self.root(name)] = value
        return Bindings._of(new)

    def __repr__(self):
        return "Bindings(%r)" % (self._map,)


class FeatureStruct(Mapping):
    """An immutable attribute -> cell mapping."""

    __slots__ = ("_items", "_hash", "_code", "__weakref__")

    def __init__(self, bindings: Optional[Mapping] = None, **kw):
        merged = dict(bindings or {})
        merged.update(kw)
        items = []
        for attr, cell in sorted(merged.items()):
            if isinstance(cell, Var):
                items.append((attr, cell))
                continue
            subset = frozenset(cell)
            if not subset:
                raise ValueError("attribute %r bound to the empty set" % attr)
            items.append((attr, subset))
        self._items = tuple(items)
        self._hash = self._code = None  # _code: see Schema.code

    @classmethod
    def _of(cls, items: tuple) -> "FeatureStruct":
        """The structure of canonical items, sorted by attribute, each cell
        a Var or a non-empty frozenset; the constructor checks the rest."""
        fs = object.__new__(cls)
        fs._items = items
        fs._hash = fs._code = None
        return fs

    def __getitem__(self, attr):
        for key, cell in self._items:
            if key == attr:
                return cell
        raise KeyError(attr)

    # read _items directly: Mapping's versions go through __getitem__
    def get(self, attr, default=None):
        for key, cell in self._items:
            if key == attr:
                return cell
        return default

    def items(self):
        return self._items

    def __iter__(self):
        return (attr for attr, _ in self._items)

    def __len__(self):
        return len(self._items)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._items)
        return self._hash

    def __eq__(self, other):
        return isinstance(other, FeatureStruct) and self._items == other._items

    def __repr__(self):
        if not self._items:
            return "FS{}"
        parts = []
        for attr, cell in self._items:
            if isinstance(cell, Var):
                parts.append("%s:%r" % (attr, cell))
            else:
                parts.append("%s:{%s}" % (attr, ",".join(sorted(cell))))
        return "FS{%s}" % ", ".join(parts)

    def resolve(self, env: Bindings) -> "FeatureStruct":
        """Substitute bound variables; unbound ones drop (underspecified)."""
        out = []
        for item in self._items:
            if isinstance(item[1], Var):
                cell = env.value(item[1])
                if cell is None:
                    continue
                item = (item[0], cell)
            out.append(item)
        return FeatureStruct._of(tuple(out))


FS = FeatureStruct

EMPTY = FeatureStruct()
UNBOUND = Bindings()


def meet(a: frozenset, b: frozenset) -> frozenset:
    """a & b, as one of the operands where it equals one, so that
    results share the grammar's sets instead of copying them."""
    if a <= b:
        return a
    return b if b <= a else a & b


def unify(a: FeatureStruct, b: FeatureStruct,
          env: Optional[Bindings] = None):
    """Unify two feature structures.

    Returns ``(result, env)`` on success and ``None`` on failure.  The
    result binds every attribute present in either input; an attribute
    present on one side only is copied through (absent means the full
    domain, and intersecting with the full domain changes nothing).  A
    variable met with a subset or a variable stays in the result, its
    class narrowed or merged in the returned environment, a copy of
    `env` made at its first write.
    """
    env = env or UNBOUND
    if not b or not a:  # nothing to meet: share the other side
        return (b if not a else a), env
    out, names, own = dict(a._items), env._map, False
    for attr, cell in b._items:
        if (old := out.setdefault(attr, cell)) is cell:
            continue  # absent from a, or the same cell
        if not isinstance(old, Var):
            if not isinstance(cell, Var):
                if not (met := meet(old, cell)):
                    return None
                out[attr] = met
                continue
            out[attr], old, cell = cell, cell, old  # the variable first
        root = r if isinstance(r := names.get(old.name), str) else old.name
        met = bound = names.get(root)
        if isinstance(cell, Var):  # cell's class joins old's
            other = r if isinstance(r := names.get(cell.name), str) else cell.name
            if other == root:
                continue
            if (val := names.get(other)) is not None and \
                    not (met := val if bound is None else meet(bound, val)):
                return None
            if not own:
                names, own = dict(names), True
            for name, val in names.items():  # repoint its members
                if val == other:
                    names[name] = root
            names[other] = root
        elif not (met := cell if bound is None else meet(bound, cell)):
            return None
        if met is not bound:
            if not own:
                names, own = dict(names), True
            names[root] = met
    # attributes are distinct, so sorting never compares cells
    return FeatureStruct._of(tuple(sorted(out.items()))), \
        Bindings._of(names) if own else env


def disjoint(a: FeatureStruct, a_env: Bindings, b: FeatureStruct,
             b_env: Bindings) -> Optional[str]:
    """The first attribute that `a` and `b` bind to disjoint subsets, each
    side's variables resolved through its own bindings, or None.  Bindings
    only narrow, so unifying the two then fails too; for variable-free
    structures the converse holds as well."""
    for attr, cell in a.items():
        other = b.get(attr)
        if other is None:
            continue
        if isinstance(cell, Var):
            cell = a_env.value(cell)
        if isinstance(other, Var):
            other = b_env.value(other)
        if cell is not None and other is not None and not cell & other:
            return attr
    return None


def subsumes(general: FeatureStruct, specific: FeatureStruct, schema: Schema,
             env: Optional[Bindings] = None) -> bool:
    """True iff every attribute bound in `general` covers `specific`'s value.

    An attribute absent from `specific` counts as the full domain, so it
    is only subsumed by a `general` binding that is itself the full domain.
    """
    env = env or Bindings()
    return not schema.code(specific, env) & ~schema.code(general, env)


def erase_attribute(fs: FeatureStruct, attr: str) -> FeatureStruct:
    """Remove one attribute binding; erasing an absent attribute is identity."""
    if attr not in fs:
        return fs
    return FeatureStruct._of(tuple(item for item in fs.items()
                                   if item[0] != attr))
