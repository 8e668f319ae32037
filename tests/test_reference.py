"""An independent reference enumerator, the oracle of the search.

It knows nothing of the search: it applies every operation at every
site and node, in every order, through the public `instantiate`,
`substitute`, `adjoin` and `finalize` only, up to a step bound of its
own, and it deduplicates states with their variables renamed by first
occurrence.  It is checked at its bound and one step past it, so a
result that needs more steps cannot hide, and it judges the search's
divergence check on mutated grammars: where the search calls a grammar
divergent, more steps must give the oracle more results.  Its finals
also judge `generate`, which fills sites from part tables, through
`realizations_from_finals`, and `recognize`, which must read each of
them back once fused.
"""

import contextlib
import functools
import signal
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from creoletag import engine
from creoletag.creole import DIALECTS, grammar_text
from creoletag.dsl import load_grammar
from creoletag.errors import (AnchorUnificationFailure, CollapseFailure,
                              DivergentGrammar, NotAnAdjunctionSite,
                              NoRealization, PendingSite, UnificationFailure)
from creoletag.featstruct import EMPTY, FeatureStruct, Var, unify
from creoletag.generate import (NPSpec, SemSpec, _content, _goal_for,
                                _particles, apply_fusion, generate,
                                realizations_from_finals)
from creoletag.grammar import Grammar, Lexeme, validate
from creoletag.recognize import recognize
from creoletag.trees import AUXILIARY, INITIAL, INTERNAL, SUBST
from dialect_claim import SPACE, goal_of


def _canonical(derived):
    """A derived tree's nodes in pre-order, each variable read through
    the bindings: its value, or its first-occurrence index while unbound."""
    env, names = derived.env, {}

    def cells(fs):
        return tuple((attr, cell if not isinstance(cell, Var) else
                      env.value(cell) or names.setdefault(
                          env.root(cell.name), len(names)))
                     for attr, cell in fs.items())

    return tuple((node.label, node.kind, len(node.children), node.lexeme,
                  node.variant, node.was_foot, cells(node.top),
                  cells(node.bottom)) for _, node in derived.root.walk())


def reference(grammar, label, lexemes, content):
    """Yield, for k = 1, 2, ..., every complete derivation from an
    initial tree of `label` within k steps, each an instantiation, a
    substitution or an adjunction, that anchors the lexemes `content`
    exactly as often as listed and otherwise only `lexemes`, as
    (frontier, features, state) triples.  The caller bounds the steps."""

    @functools.cache
    def instances(klass, root):
        out = []
        for tree in grammar.trees:
            if (tree.klass, tree.root.label) != (klass, root):
                continue
            if tree.anchor_address() is None:
                out.append(engine.instantiate(grammar, tree))
                continue
            for lexeme in grammar.lexicon:
                for i in range(len(lexeme.variants)
                               if lexeme.id in lexemes else 0):
                    try:
                        out.append(engine.instantiate(grammar, tree,
                                                      lexeme.id, i))
                    except AnchorUnificationFailure:
                        continue
        return out

    def successors(derived):
        for address, node in derived.root.walk():
            if node.kind == SUBST:
                op, klass = engine.substitute, INITIAL
            elif node.kind == INTERNAL:
                op, klass = engine.adjoin, AUXILIARY
            else:
                continue
            for part in instances(klass, node.label):
                try:
                    yield op(grammar, derived, address, part)
                except (UnificationFailure, NotAnAdjunctionSite):
                    continue

    results, seen = set(), set()
    level = instances(INITIAL, label)
    while True:
        following = []
        for derived in level:
            state = _canonical(derived)
            if state in seen:
                continue
            seen.add(state)
            anchored = [node.lexeme for _, node in derived.root.walk()]
            if any(anchored.count(lexeme) > content.count(lexeme)
                   for lexeme in content):
                continue
            try:
                final = engine.finalize(grammar, derived)
            except (PendingSite, CollapseFailure):
                final = None
            if final and all(anchored.count(lexeme) == content.count(lexeme)
                             for lexeme in content):
                results.add((final.frontier, final.features, state))
            following.extend(successors(derived))
        yield frozenset(results)
        level = following


def searched(grammar, label, content):
    """(frontier, features) of every derivation the search finds; raises
    DivergentGrammar where the search reports the grammar divergent."""
    pairs = engine.enumerate_derivations(
        grammar, label, EMPTY, lexemes=_particles(grammar).union(content),
        content=content)
    return {(final.frontier, final.features) for _, final in pairs}


def oracle(grammar, label, content):
    """The reference enumerator of what `searched` searches."""
    return reference(grammar, label, _particles(grammar).union(content),
                     content)


def pairs(derivations):
    return {(frontier, features) for frontier, features, _ in derivations}


# lan open and fixed to each dialect
LANS = [None, *(frozenset({dialect}) for dialect in DIALECTS)]


def requests(grammar, label, content, lans):
    """Every request of the semantic-spec space that `searched(grammar,
    label, content)` serves, under each of `lans`."""
    return [replace(spec, lan=lan) for spec in SPACE
            if goal_of(spec) == label and _content(grammar, spec) == content
            for lan in lans]


def listed(realizations):
    return [(real.tokens, real.lan_set, real.alternatives)
            for real in realizations]


def realized(grammar, spec):
    """What generate gives, compared; [] where nothing derives."""
    try:
        return listed(generate(grammar, spec))
    except NoRealization:
        return []


def realized_from(grammar, found, spec):
    """What realizations_from_finals makes of the oracle's finals `found`
    that fit the request's goal."""
    _, goal = _goal_for(grammar, spec)
    return listed(realizations_from_finals(grammar, [
        (engine.FinalizeResult(frontier, features, ()), ())
        for frontier, features in found
        if unify(features, goal) is not None], goal))


_SHIPPED = load_grammar(grammar_text())


@functools.cache
def shipped_levels(label, content, bound):
    """The oracle's (frontier, features) pairs on the shipped grammar at
    `bound` steps and at one more."""
    levels = oracle(_SHIPPED, label, content)
    *_, found, further = (pairs(next(levels)) for _ in range(bound + 1))
    return found, further


_KEYS = [("NP", ("PERSON",)), ("NP", ("PERSON", "SAINT-THOMAS")),
         ("Pred", ("DANCE",))]


class TestShippedGrammar:
    """The unbounded search finds what the oracle finds at a bound past
    its fixpoint: one step more adds nothing.  At that bound the oracle's
    finals give each request what `generate` gives, and `recognize`
    reads each of them back once fused."""

    @pytest.mark.parametrize("label, content, bound, count", [
        ("NP", ("PERSON",), 5, 21),
        ("NP", ("PERSON", "SAINT-THOMAS"), 5, 19),
        ("Pred", ("DANCE",), 5, 30),
        ("S", ("BIRD", "DANCE"), 9, None),
    ], ids=["NP", "NP-complement", "Pred", "S"])
    def test_search_equals_oracle(self, label, content, bound, count):
        found, further = shipped_levels(label, content, bound)
        assert further == found
        assert searched(_SHIPPED, label, content) == found
        assert count is None or len(found) == count

    @pytest.mark.parametrize("label, content", _KEYS,
                             ids=["NP", "NP-complement", "Pred"])
    def test_generate_equals_realizations_of_oracle(self, label, content):
        found, further = shipped_levels(label, content, 5)
        assert further == found
        for spec in requests(_SHIPPED, label, content, LANS):
            assert realized(_SHIPPED, spec) == \
                realized_from(_SHIPPED, found, spec), spec

    @pytest.mark.parametrize("label, content", _KEYS,
                             ids=["NP", "NP-complement", "Pred"])
    def test_recognize_reads_every_oracle_final(self, label, content):
        # each final, fused under each dialect of its set, has a reading
        # under its label whose features unify with the final's
        found, further = shipped_levels(label, content, 5)
        assert further == found
        finals = {}  # fused tokens -> the features of the finals fused so
        for frontier, features in found:
            for dialect in features.get("lan", frozenset(DIALECTS)):
                finals.setdefault(tuple(apply_fusion(
                    frontier, {dialect}, _SHIPPED.fusion_rules)),
                    []).append(features)
        for tokens, wanted in finals.items():
            readings = [analysis.features
                        for analysis in recognize(_SHIPPED, tokens, label)]
            for features in wanted:
                assert any(unify(features, reading) is not None
                           for reading in readings), (tokens, features)


def _mutations(grammar):
    """Semantic edits that leave the grammar valid: an attribute dropped
    from a node's plane, or a variant's attribute dropped or widened to
    its full domain."""
    planes = [(t, address, plane, attr)
              for t, tree in enumerate(grammar.trees)
              for address, node in tree.nodes()
              for plane in ("top", "bottom")
              for attr in getattr(node, plane)]
    cells = [(x, v, attr) for x, lexeme in enumerate(grammar.lexicon)
             for v, variant in enumerate(lexeme.variants)
             for attr in variant.features]

    def drop_from_node(choice):
        t, address, plane, attr = choice
        tree = grammar.trees[t]
        node = tree.node_at(address)
        kept = FeatureStruct({a: c for a, c in getattr(node, plane).items()
                              if a != attr})
        root = engine._replace_at(tree.root, address,
                                  replace(node, **{plane: kept}))
        trees = list(grammar.trees)
        trees[t] = replace(tree, root=root)
        return ("%s %s %s -%s" % (tree.name, address, plane, attr),
                Grammar(grammar.domains, trees, grammar.lexicon,
                        grammar.fusion_rules))

    def edit_variant(choice):
        (x, v, attr), widen = choice
        lexeme = grammar.lexicon[x]
        features = dict(lexeme.variants[v].features.items())
        if widen:
            features[attr] = grammar.schema.full(attr)
        else:
            del features[attr]
        variants = list(lexeme.variants)
        variants[v] = variants[v]._replace(features=FeatureStruct(features))
        lexicon = list(grammar.lexicon)
        lexicon[x] = Lexeme(lexeme.id, lexeme.category, tuple(variants))
        return ("%s %d %s %s" % (lexeme.id, v, "widen" if widen else "-",
                                 attr),
                Grammar(grammar.domains, grammar.trees, lexicon,
                        grammar.fusion_rules))

    return st.one_of(
        st.sampled_from(planes).map(drop_from_node),
        st.tuples(st.sampled_from(cells), st.booleans()).map(edit_variant))


class TestMutatedGrammars:
    """On a grammar edited so that its search may go wrong or derive
    without end, the search finds what the oracle finds at a bound past
    its fixpoint, and generate gives every request of the search key
    what the oracle's finals give it under one lan; or the search reports
    divergence and two steps more give the oracle more derivations."""

    BOUND = 5

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(mutation=_mutations(_SHIPPED),
           key=st.sampled_from([("NP", ("PERSON",)), ("NP", ("TABLE",)),
                                ("Pred", ("DANCE",))]),
           lan=st.sampled_from(LANS))
    def test_search_or_divergence_matches_oracle(self, mutation, key, lan):
        name, grammar = mutation
        assume(not validate(grammar))
        label, content = key
        levels = oracle(grammar, label, content)
        within = [next(levels) for _ in range(self.BOUND + 2)]
        try:
            found = searched(grammar, label, content)
        except DivergentGrammar:
            assert within[-1] > within[-3], name
            return
        # a bound past the oracle's fixpoint: one step more adds nothing
        while pairs(within[-1]) != pairs(within[-2]):
            assert len(within) < self.BOUND + 5, name
            within.append(next(levels))
        assert found == pairs(within[-1]), name
        for spec in requests(grammar, label, content, [lan]):
            assert realized(grammar, spec) == \
                realized_from(grammar, found, spec), (name, spec)


_PLURAL_ROOT = "(bottom (bar 2) (nbr pl) (spe +) (dem $D) (lan $L))\n" \
    "    (children\n      (node PlurSe"
# the preposed plural with no bar on its root's bottom stacks on itself
PLURAL_STACKS = grammar_text().replace(
    _PLURAL_ROOT, _PLURAL_ROOT.replace("(bar 2) ", ""))
# a unary N over an N site, filled in place without end
N_LOOP = grammar_text() + """
(tree alpha-N-loop (class initial)
  (node N (kind internal) (bottom (bar 2))
    (children (node N (kind subst) (top (bar 2))))))
"""


@contextlib.contextmanager
def _time_limit(seconds):
    """Interrupt a call that does not return within `seconds`."""
    def expire(signum, frame):
        raise TimeoutError("no answer within %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestDivergentGrammar:
    """A grammar that derives without end gets an error naming the tree
    that repeats a state, within a second, not a truncated answer."""

    def test_plural_stacks_in_generation(self):
        grammar = load_grammar(PLURAL_STACKS)
        spec = SemSpec(args=(NPSpec("PERSON", "pl", True, True),))
        with _time_limit(1), pytest.raises(DivergentGrammar) as raised:
            generate(grammar, spec)
        assert raised.value.tree == "aux-Plur-gpmq"
        assert "'aux-Plur-gpmq'" in str(raised.value)

    def test_plural_stacks_read_a_token_each_in_recognition(self):
        # every stacked plural reads a token, so the input bounds the search
        grammar = load_grammar(PLURAL_STACKS)
        with _time_limit(1):
            assert recognize(grammar, "sé moun lasa", "NP")

    @pytest.mark.parametrize("call", [
        lambda grammar: generate(grammar, SemSpec(
            args=(NPSpec("PERSON", "sg", True),))),
        lambda grammar: recognize(grammar, "moun la", "NP"),
    ], ids=["generate", "recognize"])
    def test_unary_loop(self, call):
        grammar = load_grammar(N_LOOP)
        with _time_limit(1), pytest.raises(DivergentGrammar) as raised:
            call(grammar)
        assert raised.value.tree == "alpha-N-loop"

    def test_divergence_leaves_no_part_table_in_the_making(self):
        # a part table whose search failed is made, and fails, again
        grammar = load_grammar(N_LOOP)
        spec = SemSpec(args=(NPSpec("PERSON", "sg", True),))
        for _ in range(2):
            with _time_limit(1), pytest.raises(DivergentGrammar):
                generate(grammar, spec)
        assert None not in grammar._parts.values()
