"""Derivation engine: substitution, adjunction, collapse, enumeration.

Adjunction follows the two-plane contract.  When an auxiliary tree is
spliced at a node, the node splits: its top goes to the copy built from
the auxiliary root (unified with the root's top), its bottom to the copy
built from the foot (unified with the foot's bottom), and the subtree
below the node hangs from the foot position.  Nothing checks that a
node's own top and bottom agree until it collapses: once per part in a
search, and in :func:`finalize`, which names the first node that refuses.

Node addresses are Gorn paths (root = (), i-th child appends i).  After
a splice the subtree below the foot keeps its addresses relative to the
foot position.  Adjunction is never allowed at a node that originated
as a foot; the particle stacks of the grammar grow by adjoining at the
fresh root copy instead, so every node hosts at most one auxiliary.

Substitution takes any initial-derived filler, complete or open: an
open filler's pending sites become the host's, and :func:`finalize`
refuses a tree with a pending site.  A spliced part's own steps enter
the host's trace flat, re-addressed under the site.

A search derives top-down, depth first from an explicit stack, so a
step adds no Python frame.  It starts from instances of the goal's
initial trees, the goal unified into the root's top (which an
adjunction at the root keeps), fills the pending sites in pre-order
and adjoins only into the part substituted last (the whole tree
before the first substitution); filling the next site finishes
that part for good.  A derivation tree is context-free: what adjoins
inside a part depends on its host only through the site (Schabes &
Shieber, CL 1994).  So every derivation is still reached, and the
adjunctions of different parts are tried in one interleaving only.  A
part is collapsed once, when the search leaves it for the next site or
for good, each node's top unified with its bottom into the bindings:
no node of it changes again and bindings only narrow, so the cut is
exact, and what the part fixes (the goal's values, a language) reaches
the pretests of the parts after it.  One reader, :func:`_final`, reads
a complete derivation under those bindings.  So generation derives a
part once per grammar, as chart generators do (Kay, ACL 1996): a site
takes finished parts anchoring some of the content lexemes left that
its label can reach (:func:`_parts`), found by a search of their own
under the empty goal when first reached, and none takes an adjunction.
Recognition, whose frontier bound reads the whole tree, fills a site
in place.

Variables are named by the step that brought them in: instantiation
keeps the grammar's names, and each splice tags every variable of the
incoming tree and its bindings with its frame, the host's history
length, so an instance spliced twice never shares a variable with
itself.  Goals are checked against the schema where they enter, as
grammar material is at load; unification checks nothing.

A search skips what a pretest on codes, :meth:`Schema.clash`, shows
must fail: an anchoring once per grammar; a finished part on its
root's; an adjunction on its node's codes, made once per state, and its
auxiliary instance's, made once per grammar (:func:`_instance`), where the
bottoms clash or the tops met, with those stacked above, clash with
every root bottom a stack begun by it can end in.  An auxiliary of the
menu stacks on a bottom its foot's does not clash with, and leaves its
root's bottom, the bottom below in the fields it threads from foot to
root.  That is exact: the node collapses when the search leaves the
part, its top the host's met with the tops stacked there, its bottom
the last auxiliary root's, whose threaded fields meet the bottom of a
lower node that never changes again; a code reads any other unbound
variable as the full field, and bindings only narrow.  Recognition
looks ahead (Schabes & Joshi, ACL 1988): it adjoins only where the
layout it would make (:func:`_adjoined`) embeds in a path, the new
root's edges a gap only where the pretest admits an auxiliary there.
A derived tree is walked once, into :attr:`DerivedTree.nodes`, a list
:meth:`Node.walk` fills by plain recursion.

Derived trees are immutable; every operation returns a new tree and
either succeeds or raises without touching its inputs.  A new tree
shares the nodes it leaves unchanged: instantiation copies only the
path from the elementary root to the anchor, a splice only the path to
its site and the material it tags.  So :func:`_instance` builds each
elementary instance (tree, lexeme, variant) once per grammar and keeps
it on the grammar object, a failure as None, an auxiliary one with its
shape and codes.  A search's menu (:func:`_menu`) filters the grammar's
anchoring index (:func:`_anchorings`: what the pretest admits per class
and root label, uninstantiated) by the lexemes and tokens it may use.
Each instance or part keeps its copies tagged per frame, and nothing
else keeps a tagged structure (:func:`_splice_in`).  A finished part is
kept with its root's code and its final reading, constant below its
root and hash-consed (:func:`_constant`), and unless its root links two
cells, a splice copies none of it.  Without tokens a search's menus
and stack closures read no input, and are kept too.  Nothing else is
kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations
from typing import NamedTuple, Optional

from .errors import (AnchorUnificationFailure, CollapseFailure,
                     DivergentGrammar, LabelMismatch, NotAnAdjunctionSite,
                     NotASubstitutionSite, PendingSite, UnificationFailure)
from .featstruct import EMPTY, UNBOUND, Bindings, FeatureStruct, Var, unify
from .featstruct import disjoint as _disjoint
from .grammar import Grammar
from .trees import ANCHOR, AUXILIARY, FOOT, INITIAL, INTERNAL, SUBST, Node

_OP_ORDER = {"instantiate": 0, "substitute": 1, "adjoin": 2}


class Step(NamedTuple):
    """One derivation event, replayable against the same grammar."""

    op: str
    tree: str
    address: tuple = ()
    lexeme: Optional[str] = None
    variant: Optional[int] = None

    def key(self):
        return (_OP_ORDER.get(self.op, 9), self.address, self.tree,
                self.lexeme or "", -1 if self.variant is None else self.variant)


class _memo(cached_property):
    """cached_property without the lock Python 3.11 takes on a first read."""

    def __get__(self, tree, owner=None):
        if tree is None:
            return self
        return tree.__dict__.setdefault(self.attrname, self.func(tree))


@dataclass(unsafe_hash=True)
class DerivedTree:
    """Not frozen, for plain attribute stores; it hashes by value, as Node."""

    root: Node
    klass: str
    env: Bindings
    history: tuple = ()

    @_memo
    def nodes(self):
        """(address, node) pairs in pre-order, the tree's one walk; read-only."""
        return self.root.walk()

    @property
    def pending_sites(self):
        return tuple(addr for addr, node in self.nodes if node.kind == SUBST)

    @_memo
    def foot_address(self):
        return next((a for a, node in self.nodes if node.kind == FOOT), None)

    @_memo
    def frames(self):
        """Frame tag -> (root, bindings) tagged by :func:`_splice_in`."""
        return {}

    def node_at(self, address) -> Node:
        return self.root.node_at(address)

    def trace_key(self):
        return tuple(step.key() for step in self.history)


class FinalizeResult(NamedTuple):
    frontier: tuple[str, ...]
    features: FeatureStruct
    lexical: tuple  # (token, lexeme id, variant index) per frontier token


# --- helpers ---------------------------------------------------------------

def _splice_in(host: DerivedTree, part: DerivedTree):
    """`part`'s root and the host's bindings extended with part's, every
    variable of `part` tagged with the splice's frame, distinct within a
    derivation.  ';' ends a grammar atom, so no grammar variable looks
    tagged.  Cells and subtrees without variables are shared, not copied,
    and the tagged copy is made once per (part, frame), kept in
    `part.frames`."""
    tag = "%d;" % len(host.history)
    if tag not in part.frames:
        part.frames[tag] = _tagged_node(part.root, tag), {
            tag + name: tag + value if isinstance(value, str) else value
            for name, value in part.env._map.items()}  # noqa: SLF001
    root, names = part.frames[tag]
    return root, Bindings._of({**host.env._map, **names})  # noqa: SLF001


def _tagged(fs, tag):
    items = tuple((item[0], Var(tag + item[1].name))
                  if isinstance(item[1], Var) else item for item in fs.items())
    return fs if items == fs.items() else FeatureStruct._of(items)


def _tagged_node(n, tag):
    copy = Node(n.label, n.kind, _tagged(n.top, tag), _tagged(n.bottom, tag),
                tuple(_tagged_node(c, tag) for c in n.children), n.surface,
                n.lexeme, n.variant, n.was_foot)
    return n if copy == n else copy


def _steps(op, address, part: DerivedTree) -> tuple:
    """The Steps of splicing `part` at `address`: its instantiation as
    `op`, then its own later steps re-addressed under `address`.
    Adjunction and substitution are associative, so the flat trace
    replays to the same tree."""
    first, *rest = part.history
    return (Step(op, first.tree, address, first.lexeme, first.variant),) + \
        tuple(Step(s.op, s.tree, address + s.address, s.lexeme, s.variant)
              for s in rest)


def _replace_at(node, address, new_node):
    if not address:
        return new_node
    i = address[0]
    children = list(node.children)
    children[i] = _replace_at(children[i], address[1:], new_node)
    return Node(node.label, node.kind, node.top, node.bottom,
                tuple(children), node.surface, node.lexeme, node.variant,
                node.was_foot)


# --- operations ------------------------------------------------------------

def instantiate(grammar: Grammar, tree, lexeme_id: Optional[str] = None,
                variant_index: Optional[int] = None) -> DerivedTree:
    """Make a derived tree from an elementary tree, its variables named
    as the grammar names them.  When the tree is lexicalized, the
    anchor's bottom is unified with the lexeme variant's features (whose
    variables, if any, share the tree's names).
    """
    if isinstance(tree, str):
        tree = grammar.tree(tree)
    root = tree.root
    env = UNBOUND
    anchor_addr = tree.anchor_address()

    if lexeme_id is not None:
        lexeme = grammar.lexeme(lexeme_id)
        variant = lexeme.variants[variant_index]
        if anchor_addr is None:
            raise AnchorUnificationFailure(
                "tree %r has no anchor slot for %r" % (tree.name, variant.surface))
        anchor = tree.node_at(anchor_addr)
        if lexeme.category != anchor.label:
            raise AnchorUnificationFailure(
                "lexeme %s is not of category %s" % (lexeme_id, anchor.label))
        unified = unify(anchor.bottom, variant.features, env)
        if unified is None:
            raise AnchorUnificationFailure(
                "%r does not fit the anchor of %r" % (variant.surface, tree.name))
        bottom, env = unified
        anchored = Node(anchor.label, anchor.kind, anchor.top, bottom,
                        anchor.children, variant.surface, lexeme_id,
                        variant_index)
        root = _replace_at(root, anchor_addr, anchored)
    elif anchor_addr is not None:
        raise AnchorUnificationFailure(
            "tree %r requires a lexeme variant" % tree.name)

    step = Step("instantiate", tree.name, (), lexeme_id, variant_index)
    return DerivedTree(root=root, klass=tree.klass, env=env,
                       history=(step,))


def substitute(grammar: Grammar, host: DerivedTree, address,
               filler: DerivedTree) -> DerivedTree:
    """Fill a pending substitution site with an initial-derived tree.
    The filler may be open: its pending sites become the host's, and
    :func:`finalize` refuses the result until they are filled."""
    address = tuple(address)
    try:
        site = host.node_at(address)
    except KeyError:
        raise NotASubstitutionSite("no node at %r" % (address,)) from None
    if site.kind != SUBST:
        raise NotASubstitutionSite("node at %r is not a pending site" % (address,))
    if filler.klass != INITIAL:
        raise NotASubstitutionSite("filler is not initial-derived")
    if filler.root.label != site.label:
        raise NotASubstitutionSite("site %s cannot take a %s filler"
                                   % (site.label, filler.root.label))

    filler_root, env = _splice_in(host, filler)
    unified = unify(site.top, filler_root.top, env)
    if unified is None:
        raise UnificationFailure("substitution at %r: top features clash" % (address,))
    top, env = unified

    new_node = Node(filler_root.label, filler_root.kind, top,
                    filler_root.bottom, filler_root.children,
                    filler_root.surface, filler_root.lexeme,
                    filler_root.variant, filler_root.was_foot)
    root = _replace_at(host.root, address, new_node)
    return DerivedTree(root=root, klass=host.klass, env=env,
                       history=host.history + _steps("substitute", address,
                                                     filler))


def adjoin(grammar: Grammar, host: DerivedTree, address,
           aux: DerivedTree) -> DerivedTree:
    """Splice an auxiliary-derived tree at an internal node."""
    address = tuple(address)
    if aux.klass != AUXILIARY:
        raise NotAnAdjunctionSite("adjoined material must be auxiliary-derived")
    try:
        node = host.node_at(address)
    except KeyError:
        raise NotAnAdjunctionSite("no node at %r" % (address,)) from None
    if node.kind in (ANCHOR, SUBST):
        raise NotAnAdjunctionSite("cannot adjoin at a %s node" % node.kind)
    if node.was_foot or node.kind == FOOT:
        raise NotAnAdjunctionSite("cannot adjoin at a foot node")
    if node.label != aux.root.label:
        raise LabelMismatch("cannot adjoin %s tree at %s node"
                            % (aux.root.label, node.label))

    foot_addr = aux.foot_address
    if foot_addr is None:
        raise NotAnAdjunctionSite("auxiliary tree lost its foot")
    aux_root, env = _splice_in(host, aux)
    foot = aux_root.node_at(foot_addr)

    unified = unify(node.top, aux_root.top, env)
    if unified is None:
        raise UnificationFailure("adjunction at %r: top features clash" % (address,))
    new_top, env = unified
    unified = unify(node.bottom, foot.bottom, env)
    if unified is None:
        raise UnificationFailure("adjunction at %r: bottom/foot features clash"
                                 % (address,))
    low_bottom, env = unified

    # the lower copy keeps the foot's top plane and the host node's children
    lower = Node(node.label, INTERNAL, foot.top, low_bottom,
                 node.children, was_foot=True)
    spliced = _replace_at(aux_root, foot_addr, lower)
    upper = Node(spliced.label, spliced.kind, new_top, spliced.bottom,
                 spliced.children, spliced.surface, spliced.lexeme,
                 spliced.variant, spliced.was_foot)
    root = _replace_at(host.root, address, upper)
    return DerivedTree(root=root, klass=host.klass, env=env,
                       history=host.history + _steps("adjoin", address, aux))


def finalize(grammar: Grammar, derived: DerivedTree) -> FinalizeResult:
    """Collapse every node of a derived tree, a replayed trace say, and
    read it (:func:`_final`); CollapseFailure names the first refusal."""
    pending = derived.pending_sites
    if pending:
        raise PendingSite("substitution sites still open at %s"
                          % ", ".join(str(a) for a in pending))

    env = derived.env
    for address, node in derived.nodes:
        unified = unify(node.top, node.bottom, env)
        if unified is None:
            raise CollapseFailure(address, _disjoint(node.top, env,
                                                     node.bottom, env))
        env = unified[1]
    return _final(derived, env)


def _final(derived: DerivedTree, env) -> FinalizeResult:
    """The frontier, lexical entries and collapsed root features of a
    complete derivation whose nodes `env` collapses."""
    root = derived.root
    lexical = tuple((node.surface, node.lexeme, node.variant)
                    for _, node in derived.nodes
                    if node.kind == ANCHOR and node.surface)
    fs = unify(root.top, root.bottom, env)[0].resolve(env)
    return FinalizeResult(tuple(token for token, *_ in lexical), fs, lexical)


def replay(grammar: Grammar, history) -> DerivedTree:
    """Re-execute a derivation trace against the same grammar."""
    derived = None
    for step in history:
        part = instantiate(grammar, step.tree, step.lexeme, step.variant)
        if step.op == "instantiate":
            derived = part
        elif step.op == "substitute":
            derived = substitute(grammar, derived, step.address, part)
        elif step.op == "adjoin":
            derived = adjoin(grammar, derived, step.address, part)
        else:
            raise ValueError("unknown trace op %r" % step.op)
    return derived


# --- enumeration -------------------------------------------------------------

def _layout(nodes, part, splittable):
    """The frontier of a tree's pre-order `nodes`; its gaps, an int whose
    bit i is set where a later step may bring tokens in before frontier
    token i (bit len(frontier): after the last), at a pending site or at
    either edge of the yield of an open node, one in the open `part` whose
    label is in `splittable`; each open node's yield, (start, end) by
    address; and the sites' gaps.  Elsewhere tokens adjacent now stay
    adjacent: an adjunction inserts material only around the yield of the
    node it splits (Vijay-Shanker & Joshi, ACL 1985)."""
    frontier, gaps, sites, spans, open_ = [], 0, 0, {}, []
    for address, node in nodes:
        while open_ and len(open_[-1][0]) >= len(address):
            at, start = open_.pop()  # the yield of an open node ends here
            spans[at] = start, len(frontier)
            gaps |= 1 << len(frontier)
        if node.kind == INTERNAL:
            if not node.was_foot and node.label in splittable and \
                    address[:len(part)] == part:
                gaps |= 1 << len(frontier)
                open_.append((address, len(frontier)))
        elif node.kind == ANCHOR:
            if node.surface:
                frontier.append(node.surface)
        elif node.kind == SUBST:
            sites |= 1 << len(frontier)
    for at, start in open_:
        spans[at] = start, len(frontier)
        gaps |= 1 << len(frontier)
    return tuple(frontier), gaps | sites, spans, sites


def _adjoined(layout, address, shape):
    """The frontier and gaps of `layout`'s tree once an auxiliary of
    `shape` adjoins at its open node at `address`, but for the new root's
    edges, and their bits.  The lower copy is closed: the node's edges
    stay gaps where another source sets them, on both sides of the tokens."""
    def spread(bits, at, width):  # `width` tokens come in before token `at`
        return bits & ((2 << at) - 1) | bits >> at << (at + width)

    (frontier, gaps, spans, others), (left, right, inner) = layout, shape
    i, j = spans[address]
    for at, (start, end) in spans.items():
        if at != address:
            others |= 1 << start | 1 << end
    gaps &= ~((1 << i | 1 << j) & ~others)
    gaps = spread(spread(gaps, j, len(right)), i, len(left)) | \
        spread(inner, len(left), j - i) << i
    return (frontier[:i] + left + frontier[i:j] + right + frontier[j:], gaps,
            1 << i | 1 << (j + len(left) + len(right)))


def _anchorings(grammar, klass, label):
    """The grammar's anchoring index, built on first use: each (tree,
    lexeme id, variant index, surface) of (klass, label) whose anchor
    :meth:`Schema.clash` does not refute, in grammar order; a bare tree
    as (tree, None, None, None)."""
    index = grammar._anchorings  # noqa: SLF001 - same-package friend
    if (klass, label) not in index:
        entries = []  # stored whole: a search in another thread reads it
        for tree in grammar.trees:
            if (tree.klass, tree.root.label) != (klass, label):
                continue
            address = tree.anchor_address()
            anchor = None if address is None else tree.node_at(address)
            bottom = anchor and grammar.schema.code(anchor.bottom, UNBOUND)
            entries.extend([(tree, None, None, None)] if anchor is None else (
                (tree, lexeme.id, i, variant.surface)
                for lexeme in grammar.lexicon if lexeme.category == anchor.label
                for i, variant in enumerate(lexeme.variants)
                if not grammar.schema.clash(
                    bottom, grammar.schema.code(variant.features, UNBOUND))))
        index[klass, label] = entries
    return index[klass, label]


def _instance(grammar, tree, lexeme_id, variant_index):
    """instantiate() of one of the grammar's own trees, or None where it
    fails; an auxiliary one with its shape, the tokens it spells left and
    right of its foot and the gaps all but its root make, and its root
    top's, foot bottom's and root bottom's codes and `thru`, the bits of
    the fields it threads: one unbound variable in its root's and its
    foot's bottom.  Made once per grammar, kept on it."""
    key = (tree.name, lexeme_id, variant_index)
    memo = grammar._instances  # noqa: SLF001 - same-package friend
    if key not in memo:
        try:
            inst = instantiate(grammar, tree, lexeme_id, variant_index)
        except AnchorUnificationFailure:
            inst = None
        if inst is not None and tree.klass == AUXILIARY:
            code, env = grammar.schema.code, inst.env
            foot = inst.node_at(inst.foot_address).bottom
            cut = FeatureStruct._of(tuple(  # the threaded fields, emptied
                (attr, frozenset()) for attr, cell in inst.root.bottom.items()
                if isinstance(cell, Var) and env.value(cell) is None
                and isinstance(low := foot.get(attr), Var)
                and env.root(low.name) == env.root(cell.name)))
            frontier, gaps, *_ = _layout(inst.nodes[1:], (),  # but the root
                                         grammar.splittable)
            left = sum(at < inst.foot_address and bool(node.surface)
                       for at, node in inst.nodes)  # pre-order
            inst = (inst, (frontier[:left], frontier[left:], gaps),
                    code(inst.root.top, env), code(foot, env),
                    code(inst.root.bottom, env),
                    code(EMPTY, env) ^ code(cut, env))
        memo[key] = inst
    return memo[key]


def _menu(grammar, klass, label, lexemes, vocabulary, content=()):
    """The instances of (klass, label) a search may use: the anchoring
    index filtered by `lexemes` and by `vocabulary` (a zero form always
    passes), each made by :func:`_instance`, and paired with whether it
    progresses: spells a token where there is a `vocabulary`, else
    anchors one of `content`."""
    return [(inst, bool(surface) if vocabulary is not None else
             lexeme in content) for tree, lexeme, variant, surface
            in _anchorings(grammar, klass, label)
            if (lexemes is None or lexeme is None or lexeme in lexemes)
            and (vocabulary is None or not surface or surface in vocabulary)
            and (inst := _instance(grammar, tree, lexeme, variant))
            is not None]


def _collapsed(nodes, env, part):
    """`env` with each of `nodes` inside `part` collapsed, or None."""
    for address, node in nodes:
        if node.top and node.bottom and address[:len(part)] == part:
            unified = unify(node.top, node.bottom, env)
            if unified is None:
                return None
            env = unified[1]
    return env


def _constant(grammar, node, env):
    """`node` with its subtree resolved through `env`, hash-consed."""
    memo = grammar._constants  # noqa: SLF001 - same-package friend
    if memo.get(node.top) is node.top and memo.get(node) is node:
        return node  # spliced in (a node's hash reads its whole subtree)
    top, bottom = (memo.setdefault(fs, fs) for fs in
                   (node.top.resolve(env), node.bottom.resolve(env)))
    new = Node(node.label, node.kind, top, bottom, tuple(
        _constant(grammar, child, env) for child in node.children),
        node.surface, node.lexeme, node.variant, node.was_foot)
    return memo.setdefault(new, new)


def _parts(grammar, label, share, particles):
    """(part, root code, final) of each finished part of `label` that
    anchors the content lexemes `share` exactly and otherwise only
    `particles`: a search under the empty goal, kept on the grammar.
    Both planes of a part's root are its collapsed root."""
    memo = grammar._parts  # noqa: SLF001 - same-package friend
    key = (label, share, memo.setdefault(particles, particles))
    if key in memo:
        return memo[key]
    memo[key] = None  # in the making: a site of it inside, or a search
    # in another thread, fills in place
    entries = []  # stored whole: a search in another thread reads it
    try:
        for derived, env in _derive(grammar, label, EMPTY,
                                    particles.union(share), None, share):
            root, final = derived.root, _final(derived, env)
            children = tuple(_constant(grammar, child, env)
                             for child in root.children)
            # a variable met once on the root is its value (unbound: the
            # full domain); where one links two cells, the bindings stay
            reps = {attr: env.root(cell.name)
                    for plane in (root.top, root.bottom)
                    for attr, cell in plane.items() if isinstance(cell, Var)}
            if len(set(reps.values())) == len(reps):
                fs, env = final.features, UNBOUND
            else:
                fs = unify(root.top, root.bottom, env)[0]
            fs = grammar._constants.setdefault(fs, fs)  # noqa: SLF001
            root = Node(root.label, root.kind, fs, fs, children, root.surface,
                        root.lexeme, root.variant, root.was_foot)
            entries.append((DerivedTree(root, derived.klass, env,
                                        derived.history),
                            grammar.schema.code(fs, env), final))
    except BaseException:  # leave no table in the making; another
        memo.pop(key, None)  # thread's build may have removed the marker
        raise
    memo[key] = entries  # over the marker, which another thread may remove
    return entries


def _passing(passed, address, label, codes, tree):
    """`passed` and a step of `tree` from a state: (address, label, codes,
    tree, passed), where `codes()` makes the state's codes, called only
    where a label and an address match."""
    chain = passed
    while chain is not None:
        at, seen, seen_codes, first, chain = chain
        if seen == label and address[:len(at)] == at and \
                seen_codes() == codes():
            raise DivergentGrammar(first, label)
    return address, label, codes, tree, passed


class _Search:
    """One search's inputs, menus and stack closures, and its steps."""

    def __init__(self, grammar, lexemes, targets, content):
        self.grammar, self.targets, self.content = grammar, targets, content
        self.vocabulary = None if targets is None else targets.tokens
        self.lexemes = None if lexemes is None else frozenset(lexemes)  # a key
        # the lexemes a part may anchor besides its share
        self.particles = None if targets is not None else frozenset(
            lexemes if lexemes is not None else
            (lexeme.id for lexeme in grammar.lexicon)).difference(content)
        self.menus, self.closures = ({}, {}) if targets is not None else (
            grammar._menus, grammar._ends)  # noqa: SLF001 - they read no input

    def instances(self, klass, label):  # the menu, made on first reach
        key = (klass, label, self.lexemes, self.vocabulary, self.content)
        if key not in self.menus:
            self.menus[key] = _menu(self.grammar, *key)
        return self.menus[key]

    def ends(self, label, start):  # (root bottom, tops met) per stack on it
        key = (label, self.lexemes, start)
        if key not in self.closures:
            clash = self.grammar.schema.clash
            menu = [coded for coded, _ in self.instances(AUXILIARY, label)]
            reach = [(start, -1)]  # no top met yet; stored whole, as shared
            for below, met in reach:  # grows as it is read
                reach += {(bottom & (below | ~thru), met & top)
                          for _, _, top, foot, bottom, thru in menu
                          if not clash(below, foot)}.difference(reach)
            self.closures[key] = reach
        return self.closures[key]

    def unanchored(self, nodes):  # None where one is anchored too often
        left = sorted(self.content)
        for _, node in nodes:
            if node.kind == ANCHOR and node.lexeme in self.content:
                if node.lexeme not in left:
                    return None
                left.remove(node.lexeme)
        return tuple(left)

    def successors(self, derived, part, passed, gaps):
        """Each state a step on from `derived`, as (derived, part, passed,
        gaps), or `derived` complete, as (derived, env), in search order;
        `passed` is :func:`_passing`'s, `gaps` as the step here predicted."""
        grammar, targets, content = self.grammar, self.targets, self.content
        schema, code, splittable = grammar.schema, grammar.schema.code, \
            grammar.splittable
        nodes = derived.nodes
        left = self.unanchored(nodes) if content else ()
        if left is None:
            return
        if targets is not None:  # within the gaps the step here predicted
            frontier, own, spans, pending = _layout(nodes, part, splittable)
            layout = frontier, own & gaps, spans, pending
        exact, embeds = (True, True) if targets is None else \
            targets.bounds(*layout[:2])
        if not embeds:
            return
        env, sites = derived.env, []
        for address, node in nodes:
            if node.kind == SUBST:
                sites.append((address, node))
            if part is None or node.kind != INTERNAL or \
                    node.label not in splittable or node.was_foot or \
                    address[:len(part)] != part:
                continue
            candidates = self.instances(AUXILIARY, node.label)
            if candidates:  # each plane encoded once per state
                top, bottom = code(node.top, env), code(node.bottom, env)
            for (aux, shape, aux_top, foot, aux_bottom, thru), progress in \
                    candidates:
                if content and progress and aux.history[0].lexeme not in left:
                    continue  # anchors a content lexeme used up
                # the root bottom it leaves, and the tops met at the node
                start, met = aux_bottom & (bottom | ~thru), top & aux_top
                if schema.clash(bottom, foot) or schema.clash(met, start) \
                        and all(schema.clash(met & tops, end)
                                for end, tops in self.ends(node.label, start)):
                    continue
                if targets is not None:  # the layout it would make embeds
                    frontier, after, edges = _adjoined(layout, address, shape)
                    # the new root's edges, where a stack begun on it can
                    # end: where the pretest admits an auxiliary there
                    if any(not schema.clash(met & tops, end)
                           for end, tops in self.ends(node.label, start)[1:]):
                        after |= edges
                    if not targets.bounds(frontier, after)[1]:
                        continue
                try:
                    nxt = adjoin(grammar, derived, address, aux)
                except UnificationFailure:
                    continue
                yield nxt, part, None if progress else _passing(
                    passed, address, node.label,
                    lambda codes=(top, bottom): codes, aux.history[0].tree), \
                    -1 if targets is None else after
        if not sites and (left or not exact):
            return
        # collapse the finished part (one from a table is collapsed
        # already, and the site's top holds its root)
        if part is not None and (env := _collapsed(nodes, env, part)) is None:
            return
        if not sites:
            yield derived, env
            return
        address, site = sites[0]
        host = DerivedTree(derived.root, derived.klass, env, derived.history)
        # no adjunction follows a finished part: the last one anchors all
        tables = None if targets is not None else [
            _parts(grammar, site.label, share, self.particles)
            for share in sorted({left} if len(sites) == 1 else {
                share for k in range(len(left) + 1)
                for share in combinations(left, k)})
            if grammar.reach.get(site.label, frozenset()).issuperset(share)]
        # recognition, or a table in the making, fills in place; a
        # finished part adds no state, and none follows one with content
        if tables is None or None in tables:
            fillers = [(filler, progress, address) for filler, progress
                       in self.instances(INITIAL, site.label)]
        else:
            top = code(site.top, env)
            fillers = [(filler, False, None) for table in tables
                       for filler, root, _ in table
                       if not schema.clash(top, root)]
        for filler, progress, opened in fillers:
            try:
                nxt = substitute(grammar, host, address, filler)
            except UnificationFailure:
                continue
            yield nxt, opened, None if progress else passed \
                if opened is None else _passing(
                    passed, address, site.label, partial(code, site.top, env),
                    filler.history[0].tree), -1


def _derive(grammar, goal_label, goal_fs, lexemes, targets, content):
    """Yield each complete derivation, depth first, with the bindings
    that collapse every node of it, for :func:`_final` to read."""
    search = _Search(grammar, lexemes, targets, content)
    for base, _ in search.instances(INITIAL, goal_label):
        # the goal enters at the root's top, which an adjunction at the
        # root keeps, and is checked when the root collapses
        unified = unify(base.root.top, goal_fs, base.env)
        if unified is None:
            continue
        top, env = unified
        if top != base.root.top:
            root = base.root
            base = DerivedTree(Node(root.label, root.kind, top, root.bottom,
                                    root.children, root.surface, root.lexeme,
                                    root.variant, root.was_foot),
                               base.klass, env, base.history)
        stack = [search.successors(base, (), None, -1)]
        while stack:
            found = next(stack[-1], None)
            if found is None:
                stack.pop()
            elif len(found) == 2:  # complete
                yield found
            else:  # a state: all its successors before its next sibling
                stack.append(search.successors(*found))


def enumerate_derivations(grammar: Grammar, goal_label: str,
                          goal_fs: FeatureStruct, lexemes=None, targets=None,
                          content=()):
    """Every complete derivation whose nodes all collapse, the goal
    unified into its root's top, as (derived, final) pairs, each final
    read by :func:`_final`.

    Derivation is top-down (see the module docstring): each step adjoins
    into the part substituted last or fills the first pending site, in
    pre-order, so a trace lists the parts flat, in pre-order; a part is
    collapsed once, when the search leaves it for the next site or for
    good, and a part that does not collapse cuts the state.  Generation
    fills a site with finished parts (:func:`_parts`), recognition
    (`targets` given) with instances.
    `lexemes` optionally restricts which lexemes may anchor trees.
    `content` lists lexeme ids every result anchors exactly as often as
    listed; a partial derivation that anchors one more often is cut, and
    an adjunction that would is not tried.
    `targets` bounds the search by frontier: anchors spell only
    `targets.tokens` (zero forms always pass), and
    `targets.bounds(frontier, gaps)`, with the gaps :func:`_layout`
    reads, tells whether a derivation is exact, so returned, and whether
    it embeds, so explored further, as of an adjunction's layout before
    it is made.  What :meth:`Schema.clash` shows must fail is not tried.
    Nothing else bounds the search: a state met again at or below where
    a step left it, with no progress since (a token spelled with
    `targets`, else a `content` lexeme), repeats the steps since without
    end, and DivergentGrammar names the first one's tree.
    The states, finitely many (Vijay-Shanker, PhD thesis, 1987), are
    (label, top code, bottom code) before an adjunction and (label, top
    code) of a site filled in place.

    Results are deduplicated by (frontier, features) keeping the least
    trace, and returned sorted by trace.  The goal is checked against
    the grammar's schema here, where it enters.
    """
    grammar.schema.check(goal_fs)
    results = {}
    for derived, env in _derive(grammar, goal_label, goal_fs, lexemes,
                                targets, tuple(content)):
        final = _final(derived, env)
        key = (final.frontier, final.features)
        prior = results.get(key)
        if prior is None or derived.trace_key() < prior[0].trace_key():
            results[key] = (derived, final)
    return sorted(results.values(), key=lambda pair: pair[0].trace_key())
