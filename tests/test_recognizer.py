"""Recognition, round trips and dialect identification."""

import gc
import itertools
import random
import tracemalloc
import unicodedata
import weakref
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from creoletag import engine
from creoletag import recognize as recognize_module
from creoletag.creole import DIALECTS, golden_path, grammar_text
from creoletag.dsl import load_grammar
from creoletag.errors import (InvalidSpec, NoAnalysis, NoRealization,
                              UnificationFailure)
from creoletag.featstruct import EMPTY, FeatureStruct, unify
from creoletag.generate import (ASPECTS, NUMBERS, TMA, NPSpec, SemSpec,
                                _goal_for, apply_fusion, fuse_with_sources,
                                generate)
from creoletag.grammar import FusionRule
from creoletag.recognize import (GOALS, FusionLattice, MixedReport,
                                 identify_dialect, recognize)
from creoletag.specialize import specialize
from creoletag.trees import AUXILIARY, INITIAL


class TestRecognize:
    def test_se_tab_la(self, grammar):
        analyses = recognize(grammar, "sé tab la", "NP")
        assert len(analyses) == 1
        analysis = analyses[0]
        assert analysis.lan_set == frozenset({"GP", "MQ"})
        assert analysis.features["nbr"] == frozenset(["pl"])
        assert analysis.features["spe"] == frozenset("+")
        assert not analysis.mixed

    def test_tab_yo(self, grammar):
        analyses = recognize(grammar, "tab yo", "NP")
        assert {a.lan_set for a in analyses} == {frozenset({"HT"})}

    def test_bare_moun(self, grammar):
        analyses = recognize(grammar, "moun", "NP")
        assert analyses[0].lan_set == frozenset({"HT", "GP", "MQ", "GF"})
        assert analyses[0].features["spe"] == frozenset("-")
        assert analyses[0].features["nbr"] == frozenset(["pl"])

    def test_particle_in_np_position(self, grammar):
        with pytest.raises(NoAnalysis):
            recognize(grammar, "ka zozyo la", "NP")

    def test_fused_input(self, grammar):
        analyses = recognize(grammar, "tap danse", "Pred")
        assert analyses
        assert all(a.lan_set == frozenset({"HT"}) for a in analyses)
        assert {tuple(sorted(s)) for a in analyses
                for s in a.per_token_lan} == {("HT",)}

    def test_syncretic_conditional(self, grammar):
        # the past over the prospective is an irrealis everywhere it is
        # said, and a conditional except in Martinique
        readings = {(a.features["cnd"], a.lan_set)
                    for a in recognize(grammar, "té ké dansé", "Pred")}
        assert readings == {(frozenset("-"), frozenset({"GP", "MQ", "GF"})),
                            (frozenset("+"), frozenset({"GP", "GF"}))}
        readings = {(a.features["cnd"], a.lan_set)
                    for a in recognize(grammar, "ta danse", "Pred")}
        assert readings == {(frozenset("-"), frozenset({"HT"})),
                            (frozenset("+"), frozenset({"HT"}))}
        assert identify_dialect(grammar, "ta danse") == frozenset({"HT"})

    def test_sentence_keeps_both_readings_of_ta(self, grammar):
        # the sentence states its predicate's features, so the
        # conditional and the irrealis are two analyses, not one
        readings = [(a.features["cnd"], a.features["pas"], a.features["psp"])
                    for a in recognize(grammar, "zwazo yo ta danse", "S")]
        plus, minus = frozenset("+"), frozenset("-")
        assert sorted(readings) == sorted([(plus, minus, minus),
                                           (minus, plus, plus)])

    def test_soundness_replay(self, grammar):
        """Every unmixed analysis replays to the input string."""
        for text, goal in (("sé tab la", "NP"), ("moun sa yo", "NP"),
                           ("ta vap danse", "Pred"),
                           ("zwazo yo ta vap danse", "S")):
            for analysis in recognize(grammar, text, goal):
                replayed = engine.replay(grammar, analysis.trace)
                final = engine.finalize(grammar, replayed)
                lan = final.features.get("lan", frozenset())
                fused = apply_fusion(list(final.frontier), lan,
                                     grammar.fusion_rules)
                assert tuple(fused) == tuple(text.split())

    def test_stack_is_one_search(self, fresh_grammar, engine_calls):
        # one search per decomposition costs this stack 50 searches, 5 862
        # instantiations, 4 408 adjunctions and 1 294 finalizations; a
        # search without its frontier bound completes 31 derivations, and
        # one that bounds a frontier only after adjoining makes 27
        with pytest.raises(NoAnalysis):
            recognize(fresh_grammar, "ta vap ta vap danse", "Pred")
        assert engine_calls["enumerate_derivations"] <= 2
        assert engine_calls["instantiate"] <= 18
        assert engine_calls["adjoin"] <= 8
        assert engine_calls["_final"] == 0

    def test_ladder_work_is_bounded(self, fresh_grammar, engine_calls):
        # a list of the ladder's 5^7 decompositions peaked at 60 MB; a
        # frontier read as any subsequence of a path cost 43 adjunctions,
        # and a frontier bounded only after adjoining 27
        tracemalloc.start()
        try:
            with pytest.raises(NoAnalysis):
                recognize(fresh_grammar, "ta vap " * 7 + "danse", "Pred")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert engine_calls["instantiate"] == 16
        assert engine_calls["adjoin"] == 8

    @pytest.mark.parametrize("k", [1, 2, 5, 12, 30])
    @pytest.mark.parametrize("goal, tail, per_pair, base", [
        ("NP", "", 4, 1), ("S", " ap danse", 10, 0)],
        ids=["NP--12-6", "S- ap danse-18-12"])  # named by the old pins
    def test_name_stack_work_is_linear(self, fresh_grammar, engine_calls,
                                       k, goal, tail, per_pair, base):
        # stacked proper-name complements: a frontier read as any
        # subsequence of a lattice path lets every subset of the names
        # in, 2^k live states (129 s at k = 12 under NP); bounding a
        # frontier only after adjoining costs 10k + 5 and 14k + 9
        text = "moun" + " Sentoma Senloran" * k + " yo" + tail
        assert len(recognize(fresh_grammar, text, goal)) == 1
        assert engine_calls["adjoin"] <= per_pair * k + base

    def test_decomposed_accents(self, grammar):
        decomposed = unicodedata.normalize("NFD", "té ka dansé")
        assert decomposed != "té ka dansé"
        assert recognize(grammar, decomposed, "Pred") == \
            recognize(grammar, "té ka dansé", "Pred")
        assert identify_dialect(grammar, decomposed) == \
            frozenset({"GF", "GP", "MQ"})

    @pytest.mark.parametrize("text, adjunctions", [
        ("zwazo yo ta vap danse", 13), ("sé zozyo la té ka dansé", 4)],
        ids=["zwazo yo ta vap danse-78",  # named by the old pins
             "sé zozyo la té ka dansé-40"])
    def test_sentence_tries_one_interleaving(self, fresh_grammar,
                                             engine_calls, text, adjunctions):
        # adjoining anywhere once every site is filled tries the subject's
        # and the predicate's adjunctions in every interleaving: 156 and
        # 86 adjunctions; bounding a frontier only after adjoining, 27
        # and 5
        assert recognize(fresh_grammar, text, "S")
        assert engine_calls["enumerate_derivations"] == 1
        assert engine_calls["adjoin"] <= adjunctions

    def test_no_memo_is_keyed_by_input(self, fresh_grammar):
        # a search's menu and stack closures read the input's tokens, so
        # recognition keeps its own; the grammar's grow with it alone
        def entries():
            return sum(len(own._menus) + len(own._ends) for own in (
                fresh_grammar, fresh_grammar._relaxed) if own is not None)

        spellings = sorted({variant.surface for lexeme in fresh_grammar.lexicon
                            for variant in lexeme.variants if variant.surface})
        pairs = random.Random(0).sample(
            list(itertools.product(spellings, repeat=2)), 1000)
        generate(fresh_grammar, SemSpec(pred="DANCE", tma=TMA(pas=True)))
        for i, pair in enumerate(pairs):
            try:
                recognize(fresh_grammar, pair, GOALS[i % len(GOALS)])
            except NoAnalysis:
                pass
            if i == 0:
                first = entries()
        assert first > 0 and entries() == first

    def test_relaxed_grammar_built_once_per_grammar(self, monkeypatch):
        project_language = recognize_module.project_language
        built = []

        def counted(grammar):
            built.append(grammar)
            return project_language(grammar)

        monkeypatch.setattr(recognize_module, "project_language", counted)
        first = load_grammar(grammar_text())
        for _ in range(2):
            assert all(a.mixed for a in recognize(first, "sé zwazo la", "NP"))
        assert built == [first]
        other = load_grammar(grammar_text())
        assert all(a.mixed for a in recognize(other, "sé zwazo la", "NP"))
        assert [g is other for g in built] == [False, True]
        ref = weakref.ref(other)
        del other, built[1]
        gc.collect()
        assert ref() is None


def _decompositions(tokens, rules):
    """Every way to undo fusion replacements anywhere in the string,
    listed: the reference the lattice is checked against."""
    results = set()

    def rec(i, acc):
        if i == len(tokens):
            results.add(tuple(acc))
            return
        rec(i + 1, acc + [tokens[i]])
        for rule in rules:
            width = len(rule.replacement)
            if tuple(tokens[i:i + width]) == rule.replacement:
                rec(i + width, acc + list(rule.pattern))

    rec(0, [])
    return sorted(results, key=lambda d: (len(d), d))


def _embeds(short, long, gaps=-1):
    """Whether `short` is a subsequence of `long` whose tokens have other
    tokens between them only where `gaps` allows (bit i: before
    short[i]; bit len(short): after the last), tried at every placement."""
    def place(i, start):  # short[i:] in long[start:]
        if i == len(short):
            return start == len(long) or gaps >> i & 1
        return any(long[at] == short[i] and place(i + 1, at + 1)
                   for at in range(start, len(long) if gaps >> i & 1 else
                                   min(start + 1, len(long))))

    return place(0, 0)


class _Targets:
    """Target frontiers, listed: a frontier is exact where it is one, and
    embeds where it embeds in one."""

    def __init__(self, targets):
        self._targets = frozenset(targets)
        self.tokens = frozenset().union(*targets)

    def bounds(self, frontier, gaps=-1):
        return (frontier in self._targets,
                any(_embeds(frontier, target, gaps)
                    for target in self._targets))


class TestFusionLattice:
    """The lattice answers for a frontier, with or without gaps, as the
    list of every decomposition does."""

    @staticmethod
    def _listed(tokens, rules):
        return _Targets(_decompositions(tokens, rules))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_bounds_match_enumeration(self, grammar, data):
        rules = grammar.fusion_rules
        vocabulary = sorted({token for rule in rules
                             for token in rule.pattern + rule.replacement}
                            | {"danse"})
        tokens = tuple(data.draw(st.lists(st.sampled_from(vocabulary),
                                          min_size=1, max_size=6)))
        listed = self._listed(tokens, rules)
        lattice = FusionLattice(tokens, rules)
        assert lattice.tokens == listed.tokens
        path = data.draw(st.sampled_from(_decompositions(tokens, rules)))
        kept = data.draw(st.lists(st.booleans(), min_size=len(path),
                                  max_size=len(path)))
        frontiers = [(), path, tuple(t for t, keep in zip(path, kept) if keep),
                     tuple(data.draw(st.lists(st.sampled_from(vocabulary),
                                              max_size=8)))]
        for frontier in frontiers:
            drawn = data.draw(st.integers(0, (2 << len(frontier)) - 1))
            for gaps in (-1, drawn):
                assert lattice.bounds(frontier, gaps) == \
                    listed.bounds(frontier, gaps), (frontier, gaps)
        # the subsequence with gaps exactly where path tokens were dropped
        exact, matched = 0, 0
        for keep in kept:
            if keep:
                matched += 1
            else:
                exact |= 1 << matched
        assert lattice.bounds(frontiers[2], exact) == \
            listed.bounds(frontiers[2], exact)
        assert lattice.bounds(frontiers[2], exact)[1]

    def test_whole_path_inside_a_longer_one(self):
        # the path "danse" is a subsequence of the path "te danse"
        rules = (FusionRule(("te", "danse"), ("danse",)),)
        lattice = FusionLattice(("danse",), rules)
        listed = self._listed(("danse",), rules)
        for frontier in (("danse",), ("te",), ("te", "danse"),
                         ("danse", "te")):
            assert lattice.bounds(frontier) == listed.bounds(frontier)
        assert lattice.bounds(("danse",)) == (True, True)
        assert lattice.bounds(("te",)) == (False, True)


def _per_decomposition_search(grammar, tokens, targets, goal):
    """One blind search per decomposition, kept apart by lexemes only;
    the lattice `targets` is not read."""
    hits = []
    dialects = frozenset(grammar.dialects)
    for decomp in _decompositions(tokens, grammar.fusion_rules):
        lexemes = {lexeme.id for lexeme in grammar.lexicon
                   if any(not v.surface or v.surface in decomp
                          for v in lexeme.variants)}
        for derived, final in engine.enumerate_derivations(
                grammar, goal, EMPTY, lexemes=lexemes):
            if final.frontier != decomp:
                continue
            lan = final.features.get("lan", dialects)
            merged = fuse_with_sources(
                [(token, ((lexeme, variant),))
                 for token, lexeme, variant in final.lexical],
                lan, grammar.fusion_rules)
            if tuple(token for token, _ in merged) == tokens:
                hits.append((derived, final, lan, merged))
    return hits


def _golden_strings(longest=None):
    """(string, goal) for every golden form of at most `longest` tokens."""
    out = set()
    for name, goal in (("np", "NP"), ("tma", "Pred")):
        rows = golden_path(name).read_text(encoding="utf-8").splitlines()[1:]
        for row in rows:
            for cell in row.split("\t")[1:]:
                out.update((form, goal) for form in cell.split(" / ")
                           if longest is None or len(form.split()) <= longest)
    return sorted(out)


def test_one_search_matches_per_decomposition_oracle(grammar, monkeypatch):
    """One search over every decomposition finds what a search per
    decomposition finds."""
    # zero forms (danse + a zero aspect) are found with either target
    targets = [("danse",), ("te", "danse")]
    together = engine.enumerate_derivations(grammar, "Pred", EMPTY,
                                            targets=_Targets(targets))
    apart = [pair for target in targets
             for pair in engine.enumerate_derivations(
                 grammar, "Pred", EMPTY, targets=_Targets([target]))]
    assert sorted(d.trace_key() for d, _ in together) == \
        sorted(d.trace_key() for d, _ in apart)

    stacks = [" ".join(pair) + " danse"
              for pair in itertools.product(("tap", "vap", "ta"), repeat=2)
              if pair != ("ta", "vap")]
    inputs = sorted(set(_golden_strings(3))
                    | {("tap danse", "Pred"), ("ta vap danse", "Pred")}
                    | {(stack, "Pred") for stack in stacks})

    def outcome(text, goal):
        try:
            analyses = recognize(grammar, text, goal)
        except NoAnalysis:
            return None
        return [(a.features, a.lan_set, a.per_token_lan, a.trace, a.mixed)
                for a in analyses]

    shared = [outcome(text, goal) for text, goal in inputs]
    monkeypatch.setattr(recognize_module, "_search",
                        _per_decomposition_search)
    for (text, goal), got in zip(inputs, shared):
        assert got == outcome(text, goal), text
    assert sum(got is None for got in shared) == len(stacks)


def _reached(search):
    """(grammar, state) of each state `search()` reaches by a step."""
    states = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("adjoin", "substitute"):
            def recorded(grammar, *args, _real=getattr(engine, name)):
                states.append((grammar, _real(grammar, *args)))
                return states[-1][1]
            patch.setattr(engine, name, recorded)
        search()
    return states


def _check_predictions(grammar, state, tokens):
    """At each open node of `state`, every auxiliary of the search's menu
    that adjoins makes the frontier engine._adjoined predicts, with gaps
    inside the predicted ones: with the new root's edges, or without
    them where the new root is taken as closed.  Returns how many."""
    splittable, checked = grammar.splittable, 0
    part = next((step.address for step in reversed(state.history)
                 if step.op == "substitute"), ())
    layout = engine._layout(state.nodes, part, splittable)
    for address in layout[2]:
        label = state.node_at(address).label
        for (aux, shape, *_), _ in engine._menu(grammar, AUXILIARY, label,
                                                None, tokens):
            try:
                made = engine.adjoin(grammar, state, address, aux)
            except UnificationFailure:
                continue
            frontier, gaps, edges = engine._adjoined(layout, address, shape)
            got = engine._layout(made.nodes, part, splittable)
            closed = engine._layout(
                [(at, replace(node, was_foot=True) if at == address else node)
                 for at, node in made.nodes], part, splittable)
            assert (frontier, got[1] & ~(gaps | edges), closed[1] & ~gaps) \
                == (got[0], 0, 0), (state.history, aux.history)
            checked += 1
    return checked


class TestPrediction:
    """Recognition adjoins only where the frontier and gaps the
    adjunction would make embed in a lattice path.  The prediction,
    made from the state's layout and the auxiliary's shape, is what
    adjoining and reading the result would give, at every state a
    search reaches and for every auxiliary of its menu that adjoins."""

    @staticmethod
    def _check(grammar, search, tokens, bases):
        states = [(grammar, base) for base in bases] + _reached(search)
        return sum(_check_predictions(own, state, tokens)
                   for own, state in states)

    def _recognized(self, grammar, text, goals):
        targets = FusionLattice(tuple(text.split()), grammar.fusion_rules)
        relaxed = recognize_module._relaxed(grammar)

        def search():
            for goal in goals:
                _analyses(grammar, text, goal)

        return self._check(grammar, search, targets.tokens, [
            inst for own in (grammar, relaxed) for goal in goals
            for inst, _ in engine._menu(own, INITIAL, goal, None,
                                        targets.tokens)])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_drawn_strings(self, grammar, data):
        spellings = sorted({variant.surface for lexeme in grammar.lexicon
                            for variant in lexeme.variants if variant.surface}
                           | {"tap", "vap", "ta"})
        text = " ".join(data.draw(st.lists(st.sampled_from(spellings),
                                           min_size=1, max_size=12)))
        self._recognized(grammar, text, GOALS)

    def test_golden_strings(self, grammar):
        assert sum(self._recognized(grammar, text, (goal,))
                   for text, goal in _golden_strings()) > 100

    def test_shared_edges_and_inner_gaps(self):
        # alpha-p's two P nodes share both edges, and aux-r opens a P of
        # its own right of its foot: a gap at a shared edge stays on
        # both sides of the tokens an adjunction puts there
        grammar = load_grammar(NESTED)
        targets = FusionLattice(("m", "m", "w", "m", "m"), ())
        bases = [inst for inst, _ in engine._menu(grammar, INITIAL, "P",
                                                  None, targets.tokens)]
        assert self._check(grammar, lambda: list(
            engine.enumerate_derivations(grammar, "P", EMPTY,
                                         targets=targets)),
            targets.tokens, bases) > 20

    def test_every_adjunction_lies_on_a_derivation(self, fresh_grammar,
                                                   monkeypatch):
        # bounding the frontier only after adjoining, 46 of the 155
        # adjunctions made on these strings lay on no derivation
        made, traces = [], []
        adjoin, search = engine.adjoin, engine.enumerate_derivations

        def recorded_adjoin(*args):
            made.append(adjoin(*args))
            return made[-1]

        def recorded_search(*args, **kwargs):
            pairs = search(*args, **kwargs)
            traces.extend(derived.history for derived, _ in pairs)
            return pairs

        monkeypatch.setattr(engine, "adjoin", recorded_adjoin)
        monkeypatch.setattr(engine, "enumerate_derivations", recorded_search)
        for text, goal in _golden_strings():
            del made[:], traces[:]
            assert recognize(fresh_grammar, text, goal)
            for prefix in (derived.history for derived in made):
                assert any(trace[:len(prefix)] == prefix
                           for trace in traces), (text, prefix)


NESTED = """
(grammar nested (version 1))
(domain d (+ -))
(tree alpha-p (class initial)
  (node P (kind internal)
    (children (node P (kind internal) (children (node W (kind anchor)))))))
(tree aux-l (class aux)
  (node P (kind internal)
    (children (node M (kind anchor)) (node P (kind foot)))))
(tree aux-r (class aux)
  (node P (kind internal)
    (children (node P (kind foot))
              (node P (kind internal) (children (node M (kind anchor)))))))
(lex WORD (cat W) (variant "w"))
(lex MARK (cat M) (variant "m"))
"""


class TestIdentifyDialect:
    def test_three_way_shared(self, grammar):
        assert identify_dialect(grammar, "té ké dansé") == \
            frozenset({"GP", "MQ", "GF"})

    def test_haitian_fused(self, grammar):
        assert identify_dialect(grammar, "tap danse") == frozenset({"HT"})

    def test_mixed_input(self, grammar):
        report = identify_dialect(grammar, "sé zwazo la")
        assert isinstance(report, MixedReport)
        assert report.per_token_lan == (frozenset({"GP", "MQ"}),
                                        frozenset({"HT"}),
                                        frozenset({"GP", "MQ"}))

    def test_mixed_fused_token(self, grammar):
        # tap fuses te + ap: a fused token takes its sources' shared set
        haitian, others = frozenset({"HT"}), frozenset({"GP", "MQ", "GF"})
        analyses = recognize(grammar, "tap dansé", "Pred")
        assert analyses and all(a.mixed and not a.lan_set for a in analyses)
        assert {a.per_token_lan for a in analyses} == {(haitian, others)}
        assert identify_dialect(grammar, "tap dansé") == \
            MixedReport(("tap", "dansé"), (haitian, others))

    def test_conditional_se_is_martinican(self, grammar):
        assert identify_dialect(grammar, "sé dansé") == frozenset({"MQ"})

    def test_no_analysis(self, grammar):
        with pytest.raises(NoAnalysis):
            identify_dialect(grammar, "xyz abc")

    def test_grammar_without_lan_mixes_nothing(self, grammar):
        # a specialized grammar has no dialects to mix, so no analysis is
        # flagged and no empty per-token report comes back
        haitian = specialize(grammar, "HT")
        analyses = recognize(haitian, "tap danse", "Pred")
        assert analyses
        assert not any(a.mixed for a in analyses)
        assert {a.lan_set for a in analyses} == {frozenset()}
        assert identify_dialect(haitian, "tap danse") == frozenset()


class TestRoundTripSamples:
    CASES = (
        ("moun nan", "NP", "HT"),
        ("sé moun lasa", "NP", "GP"),
        ("sa tab ya", "NP", "GF"),
        ("zwézo a", "NP", "MQ"),
        ("k'alé dansé", "Pred", "GF"),
        ("ta danse", "Pred", "HT"),
    )

    @pytest.mark.parametrize("text,goal,dialect", CASES,
                             ids=[c[0] for c in CASES])
    def test_round_trip(self, grammar, text, goal, dialect):
        analyses = recognize(grammar, text, goal)
        good = [a for a in analyses if dialect in a.lan_set]
        assert good, "no analysis covers %s" % dialect
        replayed = engine.replay(grammar, good[0].trace)
        final = engine.finalize(grammar, replayed)
        fused = apply_fusion(list(final.frontier), good[0].lan_set,
                             grammar.fusion_rules)
        assert " ".join(fused) == text


def _bundles():
    """Every TMA bundle the specification type accepts."""
    out = []
    for flags in itertools.product((False, True), repeat=4):
        for asp in ASPECTS:
            try:
                out.append(TMA(*flags, asp=asp))
            except InvalidSpec:
                continue
    return out


class TestRoundTripProperty:
    """Criterion 6's check beyond the golden corpus: whatever `generate`
    gives a dialect, `recognize` analyses in that dialect."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(noun=st.sampled_from(("PERSON", "TABLE", "DOG", "BIRD")),
           nbr=st.sampled_from(NUMBERS),
           determination=st.sampled_from(("indef", "spe", "dem")),
           complement=st.sampled_from((None, "SAINT-THOMAS",
                                       "SAINT-LAURENT")),
           tma=st.sampled_from(_bundles()),
           dialect=st.sampled_from(DIALECTS),
           goal=st.sampled_from(("NP", "Pred", "S")))
    def test_every_realization_recognized(self, grammar, noun, nbr,
                                          determination, complement, tma,
                                          dialect, goal):
        np_spec = NPSpec(noun, nbr=nbr, spe=determination != "indef",
                         dem=determination == "dem", complement=complement)
        spec = SemSpec(pred=None if goal == "NP" else "DANCE",
                       args=() if goal == "Pred" else (np_spec,),
                       tma=TMA() if goal == "NP" else tma,
                       lan=frozenset([dialect]))
        _, goal_fs = _goal_for(grammar, spec)
        goal_fs = FeatureStruct({attr: cell for attr, cell in goal_fs.items()
                                 if attr != "lan"})
        try:
            realizations = generate(grammar, spec)
        except NoRealization:
            return
        for real in realizations:
            for tokens in (real.tokens,) + real.alternatives:
                assert any(
                    self._round_trips(grammar, analysis, tokens, dialect,
                                      goal_fs)
                    for analysis in recognize(grammar, tokens, goal)), \
                    "no analysis of %r in %s" % (" ".join(tokens), dialect)

    @staticmethod
    def _round_trips(grammar, analysis, tokens, dialect, goal_fs):
        if dialect not in analysis.lan_set or \
                unify(analysis.features, goal_fs) is None:
            return False
        final = engine.finalize(grammar, engine.replay(grammar, analysis.trace))
        return tuple(apply_fusion(list(final.frontier), analysis.lan_set,
                                  grammar.fusion_rules)) == tokens


@pytest.fixture(scope="module")
def specialized(grammar):
    return {dialect: specialize(grammar, dialect) for dialect in DIALECTS}


class TestDialectsOfASentence:
    """The paper's claim on the recognition side: the dialects of a
    generated sentence's unmixed analyses are exactly the dialects whose
    specialized grammar recognizes it."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(noun=st.sampled_from(("PERSON", "TABLE", "DOG", "BIRD")),
           nbr=st.sampled_from(NUMBERS),
           determination=st.sampled_from(((False, False), (True, False),
                                          (True, True))),
           complement=st.sampled_from((None, "SAINT-THOMAS",
                                       "SAINT-LAURENT")),
           tma=st.sampled_from(_bundles()))
    def test_union_of_unmixed_analyses(self, grammar, specialized, noun, nbr,
                                       determination, complement, tma):
        spe, dem = determination
        spec = SemSpec(pred="DANCE", tma=tma, args=(NPSpec(
            noun, nbr=nbr, spe=spe, dem=dem, complement=complement),))
        try:
            realizations = generate(grammar, spec)
        except NoRealization:
            return
        for tokens in {tokens for real in realizations
                       for tokens in (real.tokens,) + real.alternatives}:
            unmixed = frozenset().union(*(
                a.lan_set for a in recognize(grammar, tokens, "S")
                if not a.mixed))
            recognizing = set()
            for dialect, own in specialized.items():
                try:
                    recognize(own, tokens, "S")
                except NoAnalysis:
                    continue
                recognizing.add(dialect)
            assert unmixed == recognizing, " ".join(tokens)


def _analyses(grammar, text, goal):
    try:
        return recognize(grammar, text, goal)
    except NoAnalysis:
        return []


def _phrase(*slots):
    """Strings of one word per slot, the empty word left out."""
    return st.tuples(*map(st.sampled_from, slots)).map(
        lambda words: " ".join(word for word in words if word))


# noun phrases and predicates with their slots filled from every dialect
_NP_SLOTS = (("", "yon", "on", "an", "roun", "sé", "sa"),
             ("moun", "tab", "chyen", "zwazo", "zozyo", "zwézo", "zozo"),
             ("", "Sentoma", "Senloran"),
             ("", "la", "nan", "lan", "an", "a", "sa", "lasa", "tala"),
             ("", "yo", "yan", "ya", "la", "a"))
_PRED_SLOTS = (("", "te", "té", "ta", "tap"),
               ("", "va", "ké", "vap", "kay", "pral", "k'alé"),
               ("", "ka", "ap"), ("danse", "dansé"))


class TestNamedDialectsRecognize:
    """The contract on any string: the dialects its analyses name are
    exactly the dialects whose specialized grammar recognizes it, goal by
    goal and through `identify_dialect`.  An analysis found only when
    `lan` is ignored names none and is mixed."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(text=st.one_of(_phrase(*_NP_SLOTS), _phrase(*_PRED_SLOTS),
                          _phrase(*_NP_SLOTS + _PRED_SLOTS)))
    @example(text="moun sa la")  # ART variant 4: la of GP, cns -, nas -
    @example(text="zwazo Sentoma la")
    def test_named_dialects_recognize(self, grammar, specialized, text):
        everywhere = set()
        for goal in ("NP", "Pred", "S"):
            analyses = _analyses(grammar, text, goal)
            assert all(a.mixed == (not a.lan_set) for a in analyses)
            named = frozenset().union(*(a.lan_set for a in analyses))
            recognizing = {dialect for dialect, own in specialized.items()
                           if _analyses(own, text, goal)}
            assert named == recognizing, goal
            everywhere |= recognizing
        try:
            found = identify_dialect(grammar, text)
        except NoAnalysis:
            found = frozenset()
        if isinstance(found, MixedReport):
            found = frozenset()
        assert found == everywhere
