"""Grammar container: domains, elementary trees, lexicon, fusion rules.

A Grammar is canonicalized at construction (domains sorted by name,
trees by name, lexemes by id, fusion rules longest pattern first) so
that serialization is deterministic and a load/serialize round trip is
the identity.  Variant order inside a lexeme is meaningful and
preserved as written.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional

from .featstruct import FeatureStruct, Schema, Var
from .trees import ANCHOR, AUXILIARY, FOOT, INITIAL, SUBST, ElementaryTree


class Variant(NamedTuple):
    """One surface realization of a lexeme with its features.

    An empty surface is a zero form: it anchors a tree but contributes
    no token to the frontier.
    """

    surface: str
    features: FeatureStruct


class Lexeme(NamedTuple):
    id: str
    category: str
    variants: tuple[Variant, ...]


class FusionRule(NamedTuple):
    """Surface contraction of adjacent particles (te + ap > tap).

    `lan` is the language guard: the rule fires only for realizations
    whose language set it covers.  None means unconditional (the guard
    was erased by specialization).
    """

    pattern: tuple[str, ...]
    replacement: tuple[str, ...]
    lan: Optional[frozenset] = None


class Metadata(NamedTuple):
    name: str = "grammar"
    version: str = "1"


class Grammar:
    """Immutable after construction; safe to share between tasks.

    `dialects` are the values of the `lan` domain in declaration order,
    and the one place that domain is read.  A grammar without `lan` has
    none: it is one unnamed dialect, and every language set it yields
    is empty.

    Its memos are filled on first use and collected with it: `_relaxed`,
    the projection onto every dialect that the recognizer falls back
    to, `reach`, `_particles`, and the engine's `_instances` (elementary
    instances, an auxiliary one with its codes), `_anchorings` (the
    anchoring index), `_menus` and `_ends` (menus and stack closures of
    searches without tokens), `_parts` (finished parts) and `_constants`
    (their hash-consed nodes).
    """

    def __init__(self, domains, trees, lexicon, fusion_rules=(), metadata=None):
        self.domains = tuple(sorted(domains, key=lambda d: d.name))
        self.trees = tuple(sorted(trees, key=lambda t: t.name))
        self.lexicon = tuple(sorted(lexicon, key=lambda l: l.id))
        # longest pattern first, as fusion tries them; stable, so the
        # first of two rules with one pattern stays first
        self.fusion_rules = tuple(sorted(
            fusion_rules, key=lambda r: (-len(r.pattern), r.pattern)))
        self.metadata = metadata or Metadata()
        self.schema = Schema(self.domains)
        self.dialects = next((d.values for d in self.domains
                              if d.name == "lan"), ())
        # the labels an adjunction may split: auxiliary roots
        self.splittable = frozenset(t.root.label for t in self.trees
                                    if t.klass == AUXILIARY)
        self._trees_by_name = {t.name: t for t in self.trees}
        self._lexemes_by_id = {l.id: l for l in self.lexicon}
        self._relaxed = self._particles = None
        self._instances, self._anchorings, self._parts = {}, {}, {}
        self._constants, self._menus, self._ends = {}, {}, {}

    def tree(self, name: str) -> ElementaryTree:
        return self._trees_by_name[name]

    def has_tree(self, name: str) -> bool:
        return name in self._trees_by_name

    def lexeme(self, lid: str) -> Lexeme:
        return self._lexemes_by_id[lid]

    def has_lexeme(self, lid: str) -> bool:
        return lid in self._lexemes_by_id

    def initial_trees(self):
        return [t for t in self.trees if t.klass == INITIAL]

    @cached_property
    def reach(self):
        """Root label -> ids of the lexemes a derivation from it may anchor:
        a tree's every node leads to the trees rooted in its label."""
        edges = {}
        for tree in self.trees:
            edges.setdefault(tree.root.label, set()).update(
                node.label for _, node in tree.nodes())
        for found in [*edges.values()] * len(edges):  # closes every path
            found.update(*[edges.get(label, ()) for label in found])
        return {label: frozenset(lexeme.id for lexeme in self.lexicon
                                 if lexeme.category in found)
                for label, found in edges.items()}

    def __eq__(self, other):
        return (isinstance(other, Grammar)
                and self.domains == other.domains
                and self.trees == other.trees
                and self.lexicon == other.lexicon
                and self.fusion_rules == other.fusion_rules
                and self.metadata == other.metadata)

    def __repr__(self):
        return "Grammar(%s: %d trees, %d lexemes)" % (
            self.metadata.name, len(self.trees), len(self.lexicon))


def validate(grammar: Grammar) -> list[str]:
    """Static well-formedness check; returns findings (empty = valid)."""
    findings = []

    for what, keys in (("tree name", [t.name for t in grammar.trees]),
                       ("lexeme id", [l.id for l in grammar.lexicon])):
        seen = set()
        for key in keys:
            if key in seen:
                findings.append("duplicate %s %r" % (what, key))
            seen.add(key)

    initial_roots = {t.root.label for t in grammar.initial_trees()}
    lexeme_categories = {l.category for l in grammar.lexicon}
    sites = []  # findings on substitution sites and anchors: reported later
    for tree in grammar.trees:
        feet, anchors, checks = [], 0, []
        for address, node in tree.nodes():
            if node.kind == FOOT:
                feet.append(node)
            elif node.kind == SUBST and node.label not in initial_roots:
                sites.append("no initial tree derives substitution site %r "
                             "in tree %r" % (node.label, tree.name))
            elif node.kind == ANCHOR:
                anchors += 1
                if node.label not in lexeme_categories:
                    sites.append("no lexeme of category %r fills the anchor "
                                 "of tree %r" % (node.label, tree.name))
            for fs in (node.top, node.bottom):
                for problem in _check_fs(grammar, fs):
                    checks.append("tree %r node %s %s" % (
                        tree.name, address or ("root",), problem))
        if tree.klass == INITIAL and feet:
            findings.append("initial tree %r has a foot node" % tree.name)
        if tree.klass == AUXILIARY:
            if len(feet) != 1:
                findings.append("auxiliary tree %r has %d foot nodes"
                                % (tree.name, len(feet)))
            elif feet[0].label != tree.root.label:
                findings.append("foot/root mismatch in tree %r (%s vs %s)"
                                % (tree.name, feet[0].label, tree.root.label))
        if anchors > 1:
            findings.append("tree %r has more than one anchor" % tree.name)
        findings.extend(checks)

    for lexeme in grammar.lexicon:
        for i, variant in enumerate(lexeme.variants):
            where = "lexeme %s variant %d (%r)" % (lexeme.id, i, variant.surface)
            for problem in _check_fs(grammar, variant.features):
                findings.append("%s %s" % (where, problem))
            if grammar.dialects and not isinstance(
                    variant.features.get("lan"), frozenset):
                findings.append("%s does not bind lan" % where)
    findings.extend(sites)

    for rule in grammar.fusion_rules:
        if rule.lan is not None and not rule.lan.issubset(grammar.dialects):
            findings.append("fusion rule %r uses unknown language codes"
                            % (" ".join(rule.pattern),))
        if not rule.pattern or not rule.replacement:
            findings.append("fusion rule with empty pattern or replacement")

    return findings


def _check_fs(grammar: Grammar, fs: FeatureStruct) -> list[str]:
    """What is wrong with fs, each finding to follow the place of fs."""
    findings = []
    for attr, cell in fs.items():
        if attr not in grammar.schema:
            findings.append("uses undeclared attribute %r" % attr)
        elif not isinstance(cell, Var) and not cell.issubset(
                values := grammar.schema.domain(attr).values):
            findings.append("binds %r to values outside its domain: %s"
                            % (attr, ",".join(sorted(cell.difference(values)))))
    return findings
