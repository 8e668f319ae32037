"""Derivation engine tests: operations, errors, replay, enumeration."""

import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creoletag import engine
from creoletag.creole import DIALECTS, golden_path, grammar_text
from creoletag.dsl import load_grammar
from creoletag.errors import (AnchorUnificationFailure, CollapseFailure,
                              LabelMismatch, NoAnalysis, NoRealization,
                              NotAnAdjunctionSite, NotASubstitutionSite,
                              PendingSite,
                              UndeclaredAttribute, UnificationFailure)
from creoletag.featstruct import (EMPTY, AttributeDomain, FeatureStruct,
                                  Schema, Var, unify)
from creoletag.generate import (TMA, NPSpec, SemSpec, generate, golden_corpus,
                                table_np, table_tma)
from creoletag.grammar import Grammar
from creoletag.recognize import FusionLattice, recognize
from creoletag.specialize import project_language, specialize
from creoletag.trees import ANCHOR, AUXILIARY, FOOT, INITIAL, SUBST, Node
from dialect_claim import SPACE
from test_recognizer import _golden_strings
from test_reference import _canonical

TOY = """
(grammar toy (version 1))
(domain nbr (sg pl))
(domain mark (+ -))
(tree alpha-root (class initial)
  (node X (kind internal)
    (bottom (mark -))
    (children
      (node Y (kind subst) (top (nbr sg)))
      (node W (kind anchor)))))
(tree alpha-filler-pl (class initial)
  (node Y (kind internal)
    (top (nbr pl))
    (children (node W (kind anchor)))))
(tree alpha-filler-open (class initial)
  (node Y (kind internal)
    (children
      (node Y (kind subst))
      (node W (kind anchor)))))
(tree alpha-clash (class initial)
  (node X (kind internal)
    (top (mark +))
    (bottom (mark -))
    (children (node W (kind anchor)))))
(tree aux-wrap (class aux)
  (node X (kind internal)
    (bottom (mark +))
    (children
      (node W (kind anchor))
      (node X (kind foot)))))
(tree alpha-picky (class initial)
  (node X (kind internal)
    (children (node W (kind anchor) (bottom (nbr sg))))))
(tree alpha-two (class initial)
  (node X (kind internal)
    (top (nbr sg))
    (children
      (node X (kind internal)
        (top (nbr pl))
        (children (node W (kind anchor)))))))
(tree aux-pass (class aux)
  (node X (kind internal)
    (top (nbr $N))
    (children
      (node W (kind anchor))
      (node X (kind foot) (top (nbr $N))))))
(lex WORD (cat W) (variant "w") (variant "wpl" (nbr pl)))
(lex OTHER (cat Y) (variant "y"))
"""


@pytest.fixture(scope="module")
def toy():
    return load_grammar(TOY)


class TestToyOperations:
    def test_substitute_top_clash(self, toy):
        host = engine.instantiate(toy, "alpha-root", "WORD", 0)
        filler = engine.instantiate(toy, "alpha-filler-pl", "WORD", 0)
        with pytest.raises(UnificationFailure):
            engine.substitute(toy, host, (0,), filler)

    def test_substitute_open_filler(self, toy):
        # an open filler's pending site becomes the host's, and only
        # finalize insists that it be filled
        host = engine.instantiate(toy, "alpha-root", "WORD", 0)
        filler = engine.instantiate(toy, "alpha-filler-open", "WORD", 0)
        derived = engine.substitute(toy, host, (0,), filler)
        assert (0, 0) in derived.pending_sites
        with pytest.raises(PendingSite):
            engine.finalize(toy, derived)
        inner = engine.instantiate(toy, "alpha-filler-pl", "WORD", 0)
        derived = engine.substitute(toy, derived, (0, 0), inner)
        assert derived.pending_sites == ()
        assert engine.finalize(toy, derived).frontier == ("w", "w", "w")

    def test_substitute_wrong_address(self, toy):
        host = engine.instantiate(toy, "alpha-root", "WORD", 0)
        with pytest.raises(NotASubstitutionSite):
            engine.substitute(toy, host, (1,), host)

    def test_adjoin_label_mismatch(self, toy):
        host = engine.instantiate(toy, "alpha-filler-pl", "WORD", 0)
        aux = engine.instantiate(toy, "aux-wrap", "WORD", 0)
        with pytest.raises(LabelMismatch):
            engine.adjoin(toy, host, (), aux)

    def test_adjoin_at_anchor_forbidden(self, toy):
        host = engine.instantiate(toy, "alpha-clash", "WORD", 0)
        aux = engine.instantiate(toy, "aux-wrap", "WORD", 0)
        with pytest.raises(NotAnAdjunctionSite):
            engine.adjoin(toy, host, (0,), aux)

    def test_adjoin_at_foot_copy_forbidden(self, toy):
        host = engine.instantiate(toy, "alpha-clash", "WORD", 0)
        aux = engine.instantiate(toy, "aux-wrap", "WORD", 0)
        once = engine.adjoin(toy, host, (), aux)
        aux2 = engine.instantiate(toy, "aux-wrap", "WORD", 0)
        foot_copy = next(addr for addr, node in once.root.walk()
                         if node.was_foot)
        with pytest.raises(NotAnAdjunctionSite):
            engine.adjoin(toy, once, foot_copy, aux2)

    def test_anchor_feature_clash(self, toy):
        # the anchor slot demands sg but the variant carries pl
        with pytest.raises(AnchorUnificationFailure):
            engine.instantiate(toy, "alpha-picky", "WORD", 1)
        derived = engine.instantiate(toy, "alpha-picky", "WORD", 0)
        assert engine.finalize(toy, derived).frontier == ("w",)

    def test_finalize_pending_site(self, toy):
        host = engine.instantiate(toy, "alpha-root", "WORD", 0)
        with pytest.raises(PendingSite):
            engine.finalize(toy, host)

    def test_finalize_collapse_failure(self, toy):
        derived = engine.instantiate(toy, "alpha-clash", "WORD", 0)
        with pytest.raises(CollapseFailure):
            engine.finalize(toy, derived)

    def test_adjunction_repairs_collapse(self, toy):
        # the aux splits top (mark +) from bottom (mark -): both planes collapse
        derived = engine.instantiate(toy, "alpha-clash", "WORD", 0)
        aux = engine.instantiate(toy, "aux-wrap", "WORD", 0)
        fixed = engine.adjoin(toy, derived, (), aux)
        final = engine.finalize(toy, fixed)
        assert final.frontier == ("w", "w")

    def test_out_of_domain_value_is_a_typed_error(self, toy):
        # Grammar() validates nothing, so a value no domain declares
        # reaches the search's encoder, which names it
        narrow = Grammar([AttributeDomain("nbr", ("sg",)),
                          toy.schema.domain("mark")], toy.trees, toy.lexicon)
        with pytest.raises(UndeclaredAttribute, match="'pl'.*'nbr'"):
            engine.enumerate_derivations(narrow, "X", EMPTY)


class TestVariableScope:
    def test_one_instance_spliced_twice_shares_no_variable(self, toy):
        """aux-pass carries its root's nbr to its foot through $N.  One
        instance adjoined at the pl node and then at the sg root binds
        $N at each splice; a variable shared by the two splices would
        have to be pl and sg at once, and the second adjunction would
        fail."""
        derived = engine.instantiate(toy, "alpha-two", "WORD", 0)
        aux = engine.instantiate(toy, "aux-pass", "WORD", 0)
        derived = engine.adjoin(toy, derived, (0,), aux)
        derived = engine.adjoin(toy, derived, (), aux)
        final = engine.finalize(toy, derived)
        assert final.frontier == ("w", "w", "w")
        assert final.features == FeatureStruct({"nbr": frozenset(["sg"])})
        replayed = engine.finalize(toy, engine.replay(toy, derived.history))
        assert replayed == final

    @staticmethod
    def _variables(root):
        return {cell.name for _, node in root.walk()
                for fs in (node.top, node.bottom)
                for _, cell in fs.items() if isinstance(cell, Var)}

    def test_same_frame_shares_the_tagged_copy(self, toy):
        """Two derivations splicing one instance at the same frame share
        its tagged root, and so the nodes the splice leaves as they are."""
        aux = engine.instantiate(toy, "aux-pass", "WORD", 0)
        hosts = [engine.instantiate(toy, "alpha-two", "WORD", 0),
                 engine.instantiate(toy, "alpha-two", "WORD", 1)]
        first, second = (engine._splice_in(host, aux)[0] for host in hosts)
        assert first is second
        assert self._variables(first) == {"1;N"}
        one, other = (engine.adjoin(toy, host, (0,), aux) for host in hosts)
        assert one.node_at((0, 0)) is other.node_at((0, 0))  # aux's anchor

    def test_two_frames_share_no_variable(self, toy):
        aux = engine.instantiate(toy, "aux-pass", "WORD", 0)
        host = engine.instantiate(toy, "alpha-two", "WORD", 0)
        deeper = engine.adjoin(toy, host, (0,), aux)
        first, second = (self._variables(engine._splice_in(h, aux)[0])
                         for h in (host, deeper))
        assert first == {"1;N"} and second == {"2;N"}

    def test_warm_grammar_generates_as_a_fresh_one(self, fresh_grammar):
        """Tagged copies kept on a grammar's instances change no output:
        realizations, traces and features match a freshly loaded grammar."""
        warm = load_grammar(grammar_text())
        corpus = golden_corpus()
        for spec in corpus:
            generate(warm, spec)
        for spec in corpus:
            assert generate(warm, spec) == generate(fresh_grammar, spec), spec


class TestShippedOperations:
    def test_instantiate_moun(self, grammar):
        derived = engine.instantiate(grammar, "alpha-N", "PERSON", 0)
        final = engine.finalize(grammar, derived)
        assert final.frontier == ("moun",)
        assert final.features["cns"] == frozenset("+")
        assert final.features["nas"] == frozenset("+")
        assert final.features["lan"] == frozenset({"HT", "GP", "MQ", "GF"})

    def test_instantiate_ht_only_bird(self, grammar):
        derived = engine.instantiate(grammar, "alpha-N", "BIRD", 0)
        final = engine.finalize(grammar, derived)
        assert final.frontier == ("zwazo",)
        assert final.features["lan"] == frozenset({"HT"})

    def test_instance_shares_the_elementary_nodes(self, grammar):
        # a bare tree is shared whole; an anchored one copies only the
        # path to its anchor
        sentence = grammar.tree("alpha-S")
        assert engine.instantiate(grammar, sentence).root is sentence.root
        past = grammar.tree("aux-Past")
        anchored = engine.instantiate(grammar, past, "PAST", 0)
        assert anchored.root is not past.root
        assert anchored.node_at((1,)) is past.node_at((1,))
        assert anchored.node_at((1,)).kind == "foot"

    def test_instantiate_wrong_category(self, grammar):
        with pytest.raises(AnchorUnificationFailure):
            engine.instantiate(grammar, "alpha-N", "DANCE", 0)

    def test_instantiate_language_clash(self):
        # a tree whose anchor slot is pinned to HT rejects a GP-only word
        pinned = load_grammar("""
        (domain lan (HT GP))
        (tree alpha-ht-only (class initial)
          (node N (kind internal)
            (children (node N (kind anchor) (bottom (lan HT))))))
        (lex GP-WORD (cat N) (variant "w" (lan GP)))
        (lex HT-WORD (cat N) (variant "v" (lan HT)))
        """)
        with pytest.raises(AnchorUnificationFailure):
            engine.instantiate(pinned, "alpha-ht-only", "GP-WORD", 0)
        ok = engine.instantiate(pinned, "alpha-ht-only", "HT-WORD", 0)
        assert engine.finalize(pinned, ok).frontier == ("v",)

    def test_bare_moun_features(self, grammar):
        """A bare noun keeps nbr unspecified and spe absent."""
        derived = engine.instantiate(grammar, "alpha-N", "PERSON", 0)
        final = engine.finalize(grammar, derived)
        assert "nbr" not in final.features
        assert "spe" not in final.features

    def test_moun_nan(self, grammar):
        derived = engine.instantiate(grammar, "alpha-N", "PERSON", 0)
        nan_index = self._variant(grammar, "ART", "nan")
        art = engine.instantiate(grammar, "aux-Spec-Art", "ART", nan_index)
        derived = engine.adjoin(grammar, derived, (), art)
        final = engine.finalize(grammar, derived)
        assert final.frontier == ("moun", "nan")
        assert final.features["lan"] == frozenset({"HT"})
        assert final.features["spe"] == frozenset("+")

    def test_se_tab_la_features(self, grammar):
        derived = engine.instantiate(grammar, "alpha-N", "TABLE", 0)
        la_index = self._variant(grammar, "ART", "la")  # shared GP/MQ la
        art = engine.instantiate(grammar, "aux-Spec-Art", "ART", la_index)
        derived = engine.adjoin(grammar, derived, (), art)
        se = engine.instantiate(grammar, "aux-Plur-gpmq", "PLUR_SE", 0)
        derived = engine.adjoin(grammar, derived, (), se)
        final = engine.finalize(grammar, derived)
        assert final.frontier == ("sé", "tab", "la")
        assert final.features["nbr"] == frozenset(["pl"])
        assert final.features["spe"] == frozenset("+")
        assert final.features["lan"] == frozenset({"GP", "MQ"})

    def test_blocked_gpmq_dem_on_ht_dem(self, grammar):
        derived = engine.instantiate(grammar, "alpha-N", "PERSON", 0)
        sa = engine.instantiate(grammar, "aux-Dem-ht", "DEM_HT", 0)
        derived = engine.adjoin(grammar, derived, (), sa)
        lasa = engine.instantiate(grammar, "aux-Dem-Det-gpmq", "DEM_ART", 0)
        with pytest.raises(UnificationFailure):
            engine.adjoin(grammar, derived, (), lasa)

    def test_blocked_general_imperfective_on_haitian(self, grammar):
        derived = engine.instantiate(grammar, "alpha-Pred", "DANCE", 0)  # danse, HT
        ka = engine.instantiate(grammar, "aux-Imperfective-general", "IMPF_KA", 0)
        with pytest.raises(UnificationFailure):
            engine.adjoin(grammar, derived, (), ka)

    def test_moun_sentoma_sa_yo(self, grammar):
        derived = engine.instantiate(grammar, "alpha-N", "PERSON", 0)
        comp = engine.instantiate(grammar, "aux-N-Comp", "SAINT-THOMAS", 0)
        derived = engine.adjoin(grammar, derived, (), comp)
        sa = engine.instantiate(grammar, "aux-Dem-ht", "DEM_HT", 0)
        derived = engine.adjoin(grammar, derived, (), sa)
        yo = engine.instantiate(grammar, "aux-Plur-ht", "PLUR_YO", 0)
        derived = engine.adjoin(grammar, derived, (), yo)
        final = engine.finalize(grammar, derived)
        assert final.frontier == ("moun", "Sentoma", "sa", "yo")
        assert final.features["lan"] == frozenset({"HT"})

    def test_sa_moun_senloran_an(self, grammar):
        """Preposed GF demonstrative threads the right-edge nasality, so
        the article after the nasal place name surfaces as an."""
        derived = engine.instantiate(grammar, "alpha-N", "PERSON", 0)
        comp = engine.instantiate(grammar, "aux-N-Comp", "SAINT-LAURENT", 0)
        derived = engine.adjoin(grammar, derived, (), comp)
        sa = engine.instantiate(grammar, "aux-Dem-gf", "DEM_GF", 0)
        derived = engine.adjoin(grammar, derived, (), sa)
        an_index = self._variant(grammar, "ART", "an")  # shared HT/MQ/GF an
        art = engine.instantiate(grammar, "aux-Spec-Art", "ART", an_index)
        derived = engine.adjoin(grammar, derived, (), art)
        final = engine.finalize(grammar, derived)
        assert final.frontier == ("sa", "moun", "Senloran", "an")
        assert final.features["lan"] == frozenset({"GF"})

    def test_demonstrative_requires_closure(self, grammar):
        """dem implies spe: a bare demonstrative cannot collapse."""
        derived = engine.instantiate(grammar, "alpha-N", "PERSON", 0)
        sa = engine.instantiate(grammar, "aux-Dem-ht", "DEM_HT", 0)
        derived = engine.adjoin(grammar, derived, (), sa)
        with pytest.raises(CollapseFailure) as err:
            engine.finalize(grammar, derived)
        assert (err.value.address, err.value.attr) == ((), "bar")

    def test_collapse_names_a_node_below_the_root(self, grammar):
        """A bare noun (bar 1) cannot fill the determined noun's site
        (bar 2): the root collapses, the filled site refuses."""
        derived = engine.instantiate(grammar, "alpha-NP-full")
        noun = engine.instantiate(grammar, "alpha-N", "PERSON", 0)
        derived = engine.substitute(grammar, derived, (0,), noun)
        with pytest.raises(CollapseFailure) as err:
            engine.finalize(grammar, derived)
        assert (err.value.address, err.value.attr) == ((0,), "bar")

    @staticmethod
    def _variant(grammar, lexeme_id, surface):
        for i, variant in enumerate(grammar.lexeme(lexeme_id).variants):
            if variant.surface == surface:
                return i
        raise AssertionError("no %s variant %r" % (lexeme_id, surface))


class TestReplayAndOrder:
    def test_replay_reproduces_frontier(self, grammar):
        derived = engine.instantiate(grammar, "alpha-N", "TABLE", 0)
        art = engine.instantiate(grammar, "aux-Spec-Art", "ART", 0)
        derived = engine.adjoin(grammar, derived, (), art)
        se = engine.instantiate(grammar, "aux-Plur-gpmq", "PLUR_SE", 0)
        derived = engine.adjoin(grammar, derived, (), se)
        replayed = engine.replay(grammar, derived.history)
        assert engine.finalize(grammar, replayed).frontier == \
            engine.finalize(grammar, derived).frontier
        assert engine.finalize(grammar, replayed).features == \
            engine.finalize(grammar, derived).features

    def test_spliced_parts_record_their_steps_flat(self, grammar):
        """A part built in several steps and spliced whole adds its steps
        to the host's trace, re-addressed under the site, and the flat
        trace replays to the same tree."""
        se_tab_la = engine.adjoin(  # a two-step auxiliary part
            grammar, engine.instantiate(grammar, "aux-Spec-Art", "ART", 0),
            (), engine.instantiate(grammar, "aux-Plur-gpmq", "PLUR_SE", 0))
        noun = engine.adjoin(
            grammar, engine.instantiate(grammar, "alpha-N", "TABLE", 0), (),
            se_tab_la)
        np = engine.substitute(
            grammar, engine.instantiate(grammar, "alpha-NP-full"), (0,), noun)
        s = engine.substitute(grammar, engine.instantiate(grammar, "alpha-S"),
                              (0,), np)
        s = engine.substitute(
            grammar, s, (1,),
            engine.instantiate(grammar, "alpha-Pred", "DANCE", 1))
        assert [(step.op, step.tree, step.address) for step in s.history] == [
            ("instantiate", "alpha-S", ()),
            ("substitute", "alpha-NP-full", (0,)),
            ("substitute", "alpha-N", (0, 0)),
            ("adjoin", "aux-Spec-Art", (0, 0)),
            ("adjoin", "aux-Plur-gpmq", (0, 0)),
            ("substitute", "alpha-Pred", (1,))]
        final = engine.finalize(grammar, s)
        assert final.frontier == ("sé", "tab", "la", "dansé")
        assert engine.finalize(grammar, engine.replay(grammar, s.history)) \
            == final

    def test_adjunction_order_independence(self, grammar):
        """Adjunctions at distinct addresses commute."""
        s1 = self._sentence(grammar, np_first=True)
        s2 = self._sentence(grammar, np_first=False)
        assert s1.frontier == s2.frontier
        assert s1.features == s2.features

    @staticmethod
    def _sentence(grammar, np_first):
        s = engine.instantiate(grammar, "alpha-S")
        np = engine.instantiate(grammar, "alpha-NP-full")
        noun = engine.instantiate(grammar, "alpha-N", "TABLE", 0)
        np = engine.substitute(grammar, np, (0,), noun)
        pred = engine.instantiate(grammar, "alpha-Pred", "DANCE", 1)  # dansé
        s = engine.substitute(grammar, s, (0,), np)
        s = engine.substitute(grammar, s, (1,), pred)
        art = engine.instantiate(grammar, "aux-Spec-Art", "ART", 0)
        te = engine.instantiate(grammar, "aux-Past", "PAST", 1)  # té
        if np_first:
            s = engine.adjoin(grammar, s, (0, 0), art)
            s = engine.adjoin(grammar, s, (1,), te)
        else:
            s = engine.adjoin(grammar, s, (1,), te)
            s = engine.adjoin(grammar, s, (0, 0), art)
        return engine.finalize(grammar, s)


class TestEnumeration:
    def test_gf_plural_demonstrative_unique(self, grammar, particle_lexemes):
        goal = FeatureStruct({"lan": frozenset(["GF"]),
                              "nbr": frozenset(["pl"]),
                              "spe": frozenset("+"),
                              "dem": frozenset("+")})
        derivations = engine.enumerate_derivations(
            grammar, "NP", goal, lexemes=particle_lexemes | {"PERSON"})
        frontiers = [final.frontier for _, final in derivations]
        assert frontiers == [("sa", "moun", "yan")]

    def test_enumeration_order_deterministic(self, grammar, particle_lexemes):
        goal = FeatureStruct({"spe": frozenset("+")})
        lexemes = particle_lexemes | {"DOG"}
        first = engine.enumerate_derivations(grammar, "NP", goal,
                                             lexemes=lexemes)
        second = engine.enumerate_derivations(grammar, "NP", goal,
                                              lexemes=lexemes)
        assert [d.history for d, _ in first] == \
            [d.history for d, _ in second]
        keys = [d.trace_key() for d, _ in first]
        assert keys == sorted(keys)

    def test_table_noun_frontier_census(self, grammar, particle_lexemes):
        """Frozen regression: every noun-phrase form of 'tab', across all
        dialects and determinations."""
        derivations = engine.enumerate_derivations(
            grammar, "NP", FeatureStruct(),
            lexemes=particle_lexemes | {"TABLE"})
        frontiers = sorted({" ".join(final.frontier)
                            for _, final in derivations})
        assert frontiers == [
            "an tab", "on tab", "roun tab",
            "sa tab a", "sa tab ya",
            "sé tab la", "sé tab lasa", "sé tab tala",
            "tab", "tab a", "tab la", "tab lasa",
            "tab sa a", "tab sa yo", "tab tala",
            "tab ya", "tab yo", "yon tab",
        ]
        assert len(frontiers) == 18

    def test_monotonicity_of_language_sets(self, grammar, particle_lexemes):
        """The collapsed root's lan is within every used variant's lan."""
        derivations = engine.enumerate_derivations(
            grammar, "NP", FeatureStruct(),
            lexemes=particle_lexemes | {"DOG"})
        assert derivations
        for _, final in derivations:
            root_lan = final.features.get(
                "lan", grammar.schema.full("lan"))
            for _, lexeme, variant in final.lexical:
                variant_lan = grammar.lexeme(lexeme).variants[variant] \
                    .features["lan"]
                assert root_lan <= variant_lan


def _saturate_then_adjoin(grammar, goal_label, goal_fs, max_steps,
                          lexemes=None, targets=None, content=()):
    """(frontier, features) -> the fewest steps it takes, by a second
    search, the oracle of the top-down one: every site is filled first,
    recursively, with no adjunction, and adjunction then goes anywhere
    in the tree, so adjunctions in different parts are tried in every
    interleaving.  It tries every operation, with no clash pretest, and
    stops at `max_steps` substitutions plus adjunctions."""
    vocabulary = None if targets is None else targets.tokens
    trees = {}

    def instances(klass, label):
        # the search's own menu of instances, codes dropped
        if (klass, label) not in trees:
            menu = [inst for inst, _ in
                    engine._menu(grammar, klass, label, lexemes, vocabulary)]
            trees[klass, label] = menu if klass == INITIAL else [
                aux for aux, *_ in menu]
        return trees[klass, label]

    saturated = {}

    def complete(label, budget):
        # (tree, substitutions spent) with every site filled
        if (label, budget) not in saturated:
            saturated[label, budget] = []  # a tree with a site of its label
            saturated[label, budget] = [
                pair for inst in instances(INITIAL, label)
                for pair in fill(inst, budget)]
        return saturated[label, budget]

    def fill(derived, budget):
        sites = derived.pending_sites
        if not sites:
            return [(derived, 0)]
        if budget < 1:
            return []
        out = []
        for filler, cost in complete(derived.node_at(sites[0]).label,
                                     budget - 1):
            try:
                host = engine.substitute(grammar, derived, sites[0], filler)
            except UnificationFailure:
                continue
            out.extend((full, 1 + cost + more)
                       for full, more in fill(host, budget - 1 - cost))
        return out

    results, seen = {}, {}

    def explore(derived, cost):
        state = _canonical(derived)
        if seen.get(state, cost + 1) <= cost:
            return  # reached within fewer steps: nothing new follows
        seen[state] = cost
        anchored = [node.lexeme for _, node in derived.root.walk()
                    if node.kind == ANCHOR]
        if any(anchored.count(l) > content.count(l) for l in content):
            return
        frontier = tuple(node.surface for _, node in derived.root.walk()
                         if node.kind == ANCHOR and node.surface)
        exact, embeds = (True, True) if targets is None else \
            targets.bounds(frontier)
        if not embeds:
            return
        if exact and all(anchored.count(l) == content.count(l)
                         for l in content):
            try:
                final = engine.finalize(grammar, derived)
            except CollapseFailure:
                final = None
            if final is not None and \
                    unify(final.features, goal_fs) is not None:
                key = (final.frontier, final.features)
                results[key] = min(results.get(key, cost), cost)
        if cost == max_steps:
            return
        for address, node in derived.root.walk():
            if node.kind in (ANCHOR, SUBST, FOOT) or node.was_foot:
                continue
            for aux in instances(AUXILIARY, node.label):
                try:
                    nxt = engine.adjoin(grammar, derived, address, aux)
                except UnificationFailure:
                    continue
                explore(nxt, cost + 1)

    for base, cost in sorted(complete(goal_label, max_steps),
                             key=lambda pair: pair[1]):
        explore(base, cost)
    return results


class TestTopDownSearch:
    """Filling sites in pre-order and adjoining only into the part
    substituted last reaches what filling every site first and adjoining
    anywhere reaches.  The search has no step bound; the oracle's bound
    is shown to be past its fixpoint: one step more finds nothing new."""

    @staticmethod
    def _oracle(grammar, label, bound, **kwargs):
        """The oracle's (frontier, features) pairs within `bound` steps,
        when one step more finds nothing new."""
        fewest = _saturate_then_adjoin(grammar, label, EMPTY, bound + 1,
                                       **kwargs)
        assert fewest and max(fewest.values()) <= bound
        return set(fewest)

    @staticmethod
    def _search(grammar, label, **kwargs):
        return {(final.frontier, final.features) for _, final in
                engine.enumerate_derivations(grammar, label, EMPTY, **kwargs)}

    def test_generation_searches(self, particle_lexemes):
        # each content is searched twice on one grammar: the second search
        # reads the finished parts the first one left on it
        grammar = load_grammar(grammar_text())
        contents = [("Pred", ("DANCE",), 4)] + [
            ("NP", (noun,) + ((complement,) if complement else ()), 5)
            for noun, complement in itertools.product(
                ("PERSON", "TABLE", "DOG", "BIRD"),
                (None, "SAINT-THOMAS", "SAINT-LAURENT"))] + [
            ("S", ("BIRD", "DANCE"), 8),
            ("S", ("PERSON", "SAINT-THOMAS", "DANCE"), 9)]
        for label, content, bound in contents:
            kwargs = {"lexemes": particle_lexemes | set(content),
                      "content": content}
            oracle = self._oracle(grammar, label, bound, **kwargs)
            for _ in range(2):
                assert self._search(grammar, label, **kwargs) == oracle, \
                    content

    def test_part_keeps_a_variable_linking_two_cells(self):
        """A finished part whose root links two attributes through one
        unbound variable links them still where it is substituted."""
        grammar = load_grammar("""
            (grammar linked (version 1))
            (domain a (+ -))
            (domain b (+ -))
            (tree alpha-host (class initial)
              (node T (kind internal) (bottom (a $X) (b $Y))
                (children (node P (kind subst) (top (a $X) (b $Y))))))
            (tree alpha-part (class initial)
              (node P (kind internal) (bottom (a $Z) (b $Z))
                (children (node W (kind anchor)))))
            (lex WORD (cat W) (variant "w"))""")
        goal = FeatureStruct({"a": frozenset("+")})
        pairs = engine.enumerate_derivations(grammar, "T", goal)
        assert [final.features for _, final in pairs] == [
            FeatureStruct({"a": frozenset("+"), "b": frozenset("+")})]

    def test_recognition_searches(self, grammar):
        inputs = set()
        for name, goal in (("np", "NP"), ("tma", "Pred")):
            rows = golden_path(name).read_text(encoding="utf-8")
            for row in rows.splitlines()[1:]:
                for cell in row.split("\t")[1:]:
                    inputs.update((form, goal) for form in cell.split(" / "))
        for noun, tma in itertools.product(
                ("PERSON", "BIRD"), (TMA(), TMA(pas=True, asp="imp"))):
            spec = SemSpec(pred="DANCE", tma=tma,
                           args=(NPSpec(noun, nbr="pl", spe=True),))
            inputs.update((" ".join(r.tokens), "S")
                          for r in generate(grammar, spec))
        assert sum(goal == "S" for _, goal in inputs) >= 8
        for text, goal in sorted(inputs):
            targets = FusionLattice(tuple(text.split()),
                                    grammar.fusion_rules)
            # a path is at most twice as long as the input, and a
            # derivation takes a step per path token and two more
            oracle = self._oracle(grammar, goal, 2 * len(text.split()) + 2,
                                  targets=targets)
            assert self._search(grammar, goal, targets=targets) == oracle, \
                text


class TestLayout:
    """Tokens may come in only at a pending site or at either edge of the
    yield of a node the open part may still split."""

    @staticmethod
    def _tree(was_foot=False):
        # ta [NP moun] danse [Adv]
        return Node("S", children=(
            Node("T", ANCHOR, surface="ta"),
            Node("NP", children=(Node("N", ANCHOR, surface="moun"),),
                 was_foot=was_foot),
            Node("V", ANCHOR, surface="danse"),
            Node("Adv", SUBST)))

    @pytest.mark.parametrize("was_foot, part, splittable, gaps", [
        (False, (), {"NP"}, 0b1110),  # bit i: before token i
        (False, (), set(), 0b1000),
        (False, (1,), {"NP"}, 0b1110),
        (False, (2,), {"NP"}, 0b1000),
        (True, (), {"NP"}, 0b1000),
        (False, (), {"S"}, 0b1001),
    ])
    def test_gaps(self, was_foot, part, splittable, gaps):
        nodes = list(self._tree(was_foot).walk())
        assert engine._layout(nodes, part, splittable)[:2] == \
            (("ta", "moun", "danse"), gaps)

    def test_sources(self):
        # the yield span of each open node, and the gaps of the sites
        nodes = list(self._tree().walk())
        assert engine._layout(nodes, (), {"S", "NP"})[2:] == \
            ({(): (0, 3), (1,): (1, 2)}, 0b1000)
        assert engine._layout(nodes, (2,), {"S", "NP"})[2:] == ({}, 0b1000)


class TestOneReader:
    """A search reads each complete derivation as finalize, the check of
    a replayed trace, reads it: the search's one collapse and finalize's
    collapse of every node agree."""

    @pytest.fixture
    def searched(self, monkeypatch):
        found = []
        search = engine.enumerate_derivations

        def recorded(grammar, *args, **kwargs):
            results = search(grammar, *args, **kwargs)
            found.extend((grammar, *pair) for pair in results)
            return results

        monkeypatch.setattr(engine, "enumerate_derivations", recorded)
        return found

    @staticmethod
    def _agree(found, searches):
        assert len(found) >= searches
        for grammar, derived, final in found:
            assert engine.finalize(grammar, derived) == final, derived.history

    def test_golden_corpus_requests(self, grammar, searched):
        for spec in golden_corpus():
            generate(grammar, spec)
        self._agree(searched, len(golden_corpus()))

    def test_golden_strings(self, grammar, searched):
        forms = set()
        for name, goal in (("np", "NP"), ("tma", "Pred")):
            rows = golden_path(name).read_text(encoding="utf-8").splitlines()
            forms.update((form, goal) for row in rows[1:]
                         for cell in row.split("\t")[1:]
                         for form in cell.split(" / "))
        for form, goal in sorted(forms):
            recognize(grammar, form, goal)
        self._agree(searched, len(forms))

    def test_generated_sentences(self, grammar, searched):
        sentences = {real.tokens for noun in ("PERSON", "BIRD")
                     for tma in (TMA(), TMA(pas=True, asp="imp"),
                                 TMA(cnd=True))
                     for real in generate(grammar, SemSpec(
                         pred="DANCE", tma=tma,
                         args=(NPSpec(noun, "pl", True),)))}
        searched.clear()  # keep the recognizer's searches only
        for tokens in sorted(sentences):
            recognize(grammar, " ".join(tokens), "S")
        self._agree(searched, len(sentences))


class TestSplicesCopyOncePerFrame:
    """A splice reuses the tagged copy of a part it made at the same
    frame before, so a warm grammar's searches build few nodes."""

    @pytest.mark.parametrize("work, built", [
        (table_tma, 111),
        (lambda g: recognize(g, "zwazo yo ta vap danse", "S"), 413),
    ], ids=["second_table_tma", "S"])
    def test_node_constructions(self, monkeypatch, work, built):
        # a copy per splice cost 222 and 602
        grammar = load_grammar(grammar_text())
        if work is table_tma:  # counted on a grammar a first call warmed
            work(grammar)
        calls = [0]
        real = Node.__init__

        def init(node, *args, **kwargs):
            calls[0] += 1
            real(node, *args, **kwargs)

        monkeypatch.setattr(Node, "__init__", init)
        work(grammar)
        assert calls[0] <= built


def _generate_sample(grammar):
    for spec in SPACE[::20]:
        try:
            generate(grammar, spec)
        except NoRealization:
            pass


def _recognize_golden(grammar):
    # the last one mixes dialects, so it takes the relaxed grammar's path
    for text, goal in _golden_strings() + [("zwazo la tap danse", "S")]:
        assert recognize(grammar, text, goal)


class TestNoCyclicGarbage:
    """What a search makes is freed by reference counting alone: none of
    it waits for the cycle collector, so memory follows what is live."""

    @pytest.mark.parametrize("work", [
        _generate_sample, table_np, table_tma, _recognize_golden,
        lambda grammar: [specialize(grammar, d) for d in DIALECTS],
    ], ids=["generate", "table_np", "table_tma", "recognize", "specialize"])
    def test_no_cyclic_garbage(self, work):
        # a nested function that names itself or a sibling is a cycle
        # made per call: here 15 275, 1 385, 230, 4 905 and 12 objects
        grammar = load_grammar(grammar_text())
        enabled, debug = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            work(grammar)
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.garbage.clear()
            gc.set_debug(debug)
            if enabled:
                gc.enable()
        assert garbage == 0


class TestOneWalkPerTree:
    """A derived tree is walked once; its pending sites, finalization,
    frontier and adjunction sites all read that one walk."""

    @pytest.mark.parametrize("work, walks", [
        (table_tma, 206),
        (lambda g: recognize(g, "zwazo yo ta vap danse", "S"), 266),
    ], ids=["table_tma", "S"])
    def test_root_level_walks(self, monkeypatch, work, walks):
        # counted from the grammar's load, which makes 115; a walk per
        # reader and three per finalization cost 413 and 456
        calls = [0]
        real = Node.walk

        def walk(node, address=()):
            calls[0] += not address
            return real(node, address)

        monkeypatch.setattr(Node, "walk", walk)
        work(load_grammar(grammar_text()))
        assert calls[0] <= walks


def generator_walk(node, address=()):
    """The nested-generator pre-order walk Node.walk replaced."""
    yield address, node
    for i, child in enumerate(node.children):
        yield from generator_walk(child, address + (i,))


NODE_TREES = st.recursive(
    st.builds(Node, st.sampled_from("XYZ")),
    lambda below: st.builds(Node, st.sampled_from("XYZ"),
                            children=st.lists(below, max_size=3).map(tuple)),
    max_leaves=12)


class TestWalk:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(NODE_TREES, st.lists(st.integers(0, 3), max_size=2).map(tuple))
    def test_walk_is_the_generator_pre_order(self, root, address):
        assert [(at, id(node)) for at, node in root.walk(address)] == \
            [(at, id(node)) for at, node in generator_walk(root, address)]


def _instantiable(grammar, klass, label, lexemes, spellings):
    """Every instance of (klass, label) that instantiate() makes, trying
    each lexeme variant on each tree, in grammar order."""
    out = []
    for tree in grammar.trees:
        if (tree.klass, tree.root.label) != (klass, label):
            continue
        if tree.anchor_address() is None:
            out.append(engine.instantiate(grammar, tree))
            continue
        for lexeme in grammar.lexicon:
            for index, variant in enumerate(lexeme.variants):
                if lexemes is not None and lexeme.id not in lexemes or \
                        spellings is not None and variant.surface and \
                        variant.surface not in spellings:
                    continue
                try:
                    out.append(engine.instantiate(grammar, tree, lexeme.id,
                                                  index))
                except AnchorUnificationFailure:
                    continue
    return out


@pytest.fixture(scope="module")
def grammars():
    shipped = load_grammar(grammar_text())
    return {"shipped": shipped, "lan-free": project_language(shipped),
            "HT": specialize(shipped, "HT")}


def _thru(grammar, aux):
    """The bits of each field whose cells in the auxiliary's root bottom
    and foot bottom are one unbound variable."""
    schema, env = grammar.schema, aux.env
    foot = aux.node_at(aux.foot_address).bottom
    return sum(sum(map(schema.sort_key(attr), schema.domain(attr).values))
               for attr, cell in aux.root.bottom.items()
               if isinstance(cell, Var) and env.value(cell) is None
               and isinstance(foot.get(attr), Var)
               and env.root(foot.get(attr).name) == env.root(cell.name))


class TestAnchoringIndex:
    """A search's menu, read from the grammar's anchoring index, holds
    what instantiating every anchoring of the class and root label
    gives, in the same order, and a warm grammar's searches pretest no
    anchoring and encode no auxiliary again."""

    @pytest.mark.parametrize("name", ["shipped", "lan-free", "HT"])
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_menu_is_every_instance_that_instantiates(self, grammars, name,
                                                      data):
        grammar = grammars[name]
        code = grammar.schema.code
        ids = sorted(lexeme.id for lexeme in grammar.lexicon)
        spellings = sorted({variant.surface for lexeme in grammar.lexicon
                            for variant in lexeme.variants if variant.surface})
        lexemes = data.draw(st.none() | st.sets(st.sampled_from(ids)))
        vocabulary = data.draw(st.none() | st.sets(st.sampled_from(spellings)))
        content = tuple(data.draw(st.sets(st.sampled_from(ids))))
        for klass, label in sorted({(tree.klass, tree.root.label)
                                    for tree in grammar.trees}):
            menu = engine._menu(grammar, klass, label, lexemes, vocabulary,
                                content)
            want = [(inst.history, inst.root, inst.env._map) if klass == INITIAL
                    else (inst.history, inst.root, inst.env._map,
                          code(inst.root.top, inst.env),
                          code(inst.node_at(inst.foot_address).bottom,
                               inst.env),
                          code(inst.root.bottom, inst.env),
                          _thru(grammar, inst))
                    for inst in _instantiable(grammar, klass, label, lexemes,
                                              vocabulary)]
            got = [(inst.history, inst.root, inst.env._map) if klass == INITIAL
                   else (inst[0].history, inst[0].root, inst[0].env._map)
                   + inst[2:] for inst, _ in menu]  # shape: TestPrediction
            assert got == want, (klass, label)
            # each progresses where it spells a token of the vocabulary,
            # or, with none, where it anchors content
            steps = [inst.history[0] for inst in _instantiable(
                grammar, klass, label, lexemes, vocabulary)]
            assert [progress for _, progress in menu] == [
                bool(step.lexeme and grammar.lexeme(step.lexeme).variants[
                    step.variant].surface) if vocabulary is not None
                else step.lexeme in content for step in steps], (klass, label)

    @pytest.mark.parametrize("text, goal, codes", [
        ("tap tap tap danse", "Pred", 26),
        ("zwazo yo ta vap danse", "S", 48),
    ], ids=["Pred", "S"])
    def test_warm_search_set_up(self, monkeypatch, text, goal, codes):
        # a cold search makes 38 and 51 anchoring pretests, clash calls;
        # encoding each search's auxiliaries again costs 50 and 64 codes
        grammar = load_grammar(grammar_text())

        def work():
            try:
                recognize(grammar, text, goal)
            except NoAnalysis:
                pass

        work()
        calls = {"pretests": 0, "codes": 0}
        inside, anchorings, clash = [False], engine._anchorings, Schema.clash

        def counted(key, real):
            def call(*args):
                calls[key] += 1
                return real(*args)
            return call

        def indexed(*args):  # clash calls in here pretest anchorings
            inside[0] = True
            try:
                return anchorings(*args)
            finally:
                inside[0] = False

        def pretest(schema, a, b):
            calls["pretests"] += inside[0]
            return clash(schema, a, b)

        monkeypatch.setattr(engine, "_anchorings", indexed)
        monkeypatch.setattr(Schema, "clash", pretest)
        monkeypatch.setattr(Schema, "code", counted("codes", Schema.code))
        work()
        assert calls["pretests"] == 0 and calls["codes"] <= codes


THREAD = """
(grammar thread (version 1))
(domain d (+ -))
(domain t (x y))
(domain u (x y))
(tree alpha-x (class initial)
  (node P (kind internal) (bottom (d -) (t x))
    (children (node W (kind anchor)))))
(tree alpha-y (class initial)
  (node P (kind internal) (bottom (d -) (t y))
    (children (node W (kind anchor)))))
(tree aux-m (class aux)
  (node P (kind internal) (bottom (d +) (t $X))
    (children
      (node M (kind anchor) %s)
      (node P (kind foot) %s))))
(lex WORD (cat W) (variant "w"))
(lex MARK (cat M) (variant "m" %s))
"""


class TestThreadedFields:
    """A field an auxiliary threads from its foot's bottom to its root's
    is the host's, so the adjunction pretest reads the host's value
    there; any other variable it reads as the full field.  Over goal
    t=y, the search finds what it finds with no pretest at all."""

    @pytest.mark.parametrize("anchor, foot, variant, threaded, tried", [
        # aliased to the foot's variable where the variant is anchored:
        # over alpha-x the root's t is x, so only alpha-y takes aux-m
        ("(bottom (t $X) (u $Y))", "(bottom (d -) (t $Y))", "(t $Z) (u $Z)",
         True, 1),
        # bound by the variant: read as its value, y, under either host
        ("(bottom (t $X))", "(bottom (d -) (t $X))", "(t y)", False, 1),
        # shared with the foot's top, which the host's bottom does not meet
        ("", "(top (t $X)) (bottom (d -))", "", False, 2),
    ], ids=["aliased", "bound", "foot-top"])
    def test_threaded_fields(self, monkeypatch, anchor, foot, variant,
                             threaded, tried):
        text = THREAD % (anchor, foot, variant)
        grammar, bare = load_grammar(text), load_grammar(text)
        monkeypatch.setattr(bare.schema, "clash", lambda a, b: False)
        *_, thru = engine._instance(grammar, grammar.tree("aux-m"), "MARK", 0)
        t = grammar.schema.sort_key("t")
        assert thru == (t("x") + t("y") if threaded else 0)
        calls, adjoin = [0], engine.adjoin

        def counted(*args):
            calls[0] += 1
            return adjoin(*args)

        monkeypatch.setattr(engine, "adjoin", counted)
        goal = FeatureStruct({"t": ["y"]})

        def search(own):  # (frontier, features) pairs, adjunctions tried
            calls[0] = 0
            return {(final.frontier, final.features) for _, final in
                    engine.enumerate_derivations(own, "P", goal)}, calls[0]

        (found, made), (want, bare_made) = search(grammar), search(bare)
        assert found == want
        assert {frontier for frontier, _ in found} == {("w",), ("m", "w")}
        assert made == tried < bare_made
