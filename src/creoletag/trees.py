"""Elementary-tree data types.

Every node carries two feature structures, top and bottom.  Adjunction
unifies the host node's top with the auxiliary root's top and the host
node's bottom with the auxiliary foot's bottom; the final collapse step
then requires top and bottom to unify at every node.  Variables written
in a tree are local to it: the engine keeps their names at
instantiation and tags them with the derivation step at each splice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .featstruct import EMPTY, FeatureStruct

INTERNAL = "internal"
ANCHOR = "anchor"
SUBST = "subst"
FOOT = "foot"

KINDS = (INTERNAL, ANCHOR, SUBST, FOOT)

INITIAL = "initial"
AUXILIARY = "aux"


@dataclass(frozen=True)
class TreeNode:
    label: str
    kind: str = INTERNAL
    top: FeatureStruct = EMPTY
    bottom: FeatureStruct = EMPTY
    children: tuple["TreeNode", ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown node kind %r" % self.kind)
        if self.kind != INTERNAL and self.children:
            raise ValueError("%s node %r cannot have children"
                             % (self.kind, self.label))

    def walk(self, address=()):
        """Yield (address, node) pairs in pre-order."""
        yield address, self
        for i, child in enumerate(self.children):
            yield from child.walk(address + (i,))


@dataclass(frozen=True)
class ElementaryTree:
    name: str
    klass: str  # INITIAL or AUXILIARY
    root: TreeNode

    def __post_init__(self):
        if self.klass not in (INITIAL, AUXILIARY):
            raise ValueError("unknown tree class %r" % self.klass)

    def nodes(self):
        return self.root.walk()

    def anchor_address(self):
        for address, node in self.nodes():
            if node.kind == ANCHOR:
                return address
        return None

    @property
    def anchor_label(self):
        addr = self.anchor_address()
        if addr is None:
            return None
        return self.node_at(addr).label

    def node_at(self, address) -> TreeNode:
        node = self.root
        for i in address:
            node = node.children[i]
        return node
