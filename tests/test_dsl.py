"""Grammar format: loading, validation findings, canonical serialization."""

import gc
import operator
import unicodedata
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creoletag.creole import golden_path, grammar_text
from creoletag.dsl import load_grammar, serialize
from creoletag.errors import GrammarSyntaxError, ValidationError
from creoletag.grammar import FusionRule, Grammar, validate
from creoletag.trees import ANCHOR, INITIAL, ElementaryTree, Node


class TestRoundTrip:
    def test_load_serialize_identity(self, grammar):
        assert load_grammar(serialize(grammar)) == grammar

    def test_serialize_deterministic(self, grammar):
        assert serialize(grammar) == serialize(grammar)

    def test_serialize_idempotent_after_one_pass(self, grammar):
        once = serialize(grammar)
        assert serialize(load_grammar(once)) == once

    def test_variant_order_preserved(self, grammar):
        surfaces = [v.surface for v in grammar.lexeme("ART").variants]
        reloaded = load_grammar(serialize(grammar))
        assert [v.surface for v in reloaded.lexeme("ART").variants] == surfaces

    def test_shipped_grammar_validates(self, grammar):
        assert validate(grammar) == []

    def test_lan_domain(self, grammar):
        assert grammar.schema.domain("lan").values == ("HT", "GP", "MQ", "GF")

    def test_equal_values_parse_into_one_object(self, grammar):
        """Grammars in use share each value set and structure they parse,
        and a value only a dropped grammar used is dropped with it."""
        def cells(g):
            return [cell for tree in g.trees for _, node in tree.nodes()
                    for fs in (node.top, node.bottom) for cell in (fs,) + tuple(
                        cell for _, cell in fs.items())]
        again = load_grammar(grammar_text())
        assert all(map(operator.is_, cells(again), cells(grammar)))
        lone = load_grammar("""
            (grammar lone (version 1))
            (domain d (lone-value))
            (tree t (class initial)
              (node X (kind internal) (bottom (d lone-value))
                (children (node W (kind anchor)))))
            (lex L (cat W) (variant "w"))""")
        bottom = lone.tree("t").root.bottom
        refs = [weakref.ref(bottom), weakref.ref(bottom["d"])]
        del lone, bottom
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_fusion_replacement_bare_string_form(self):
        text = """
        (domain lan (HT GP))
        (tree t (class initial)
          (node N (kind internal)
            (children (node N (kind anchor) (bottom (lan $L))))))
        (lex X (cat N) (variant "x" (lan HT)))
        (fuse (lan HT) ("te" "ap") "tap")
        """
        loaded = load_grammar(text)
        assert loaded.fusion_rules[0].replacement == ("tap",)
        # canonical form uses the list spelling and reloads to the same rule
        assert load_grammar(serialize(loaded)) == loaded


class TestSyntaxErrors:
    def test_unbalanced_paren(self):
        with pytest.raises(GrammarSyntaxError,
                           match="unbalanced '\\('") as err:
            load_grammar("(domain lan (HT")
        assert (err.value.line, err.value.column) == (1, 13)

    def test_position_reported(self):
        try:
            load_grammar("(domain lan (HT GP))\n(oops)\n")
        except GrammarSyntaxError as exc:
            assert exc.line == 2
            assert exc.column == 1
        else:
            raise AssertionError("expected a syntax error")

    def test_leaf_with_children_rejected(self):
        text = """
        (domain lan (HT))
        (tree t (class initial)
          (node N (kind anchor) (bottom (lan $L))
            (children (node N (kind internal)))))
        (lex X (cat N) (variant "x" (lan HT)))
        """
        with pytest.raises(GrammarSyntaxError):
            load_grammar(text)
        with pytest.raises(ValueError):
            ElementaryTree("t", INITIAL, Node("N", ANCHOR,
                                              children=(Node("N"),)))

    def test_empty_value_set_rejected(self):
        text = """
        (domain lan (HT GP))
        (tree t (class initial)
          (node N (kind internal)
            (children (node N (kind anchor)))))
        (lex X (cat N) (variant "x" (lan)))
        """
        with pytest.raises(GrammarSyntaxError):
            load_grammar(text)

    def test_empty_domain_rejected_at_its_form(self):
        with pytest.raises(GrammarSyntaxError,
                           match="domain 'lan' has no values") as err:
            load_grammar("(grammar g)\n  (domain lan ())\n")
        assert (err.value.line, err.value.column) == (2, 3)

    def test_decomposed_string_rejected(self):
        # a string in NFD spells a token no NFC input matches
        text = grammar_text()
        assert unicodedata.is_normalized("NFC", text)
        assert all(unicodedata.is_normalized(
            "NFC", golden_path(name).read_text(encoding="utf-8"))
            for name in ("np", "tma"))
        at = text.index('"dansé"')
        text = text.replace('"dansé"',
                            unicodedata.normalize("NFD", '"dansé"'))
        with pytest.raises(GrammarSyntaxError) as raised:
            load_grammar(text)
        line = text.count("\n", 0, at) + 1
        assert (raised.value.line, raised.value.column) == \
            (line, at - text.rfind("\n", 0, at))

    @pytest.mark.parametrize("text,message,line,column", [
        ('(lex X (cat N)\n  (variant "mo\nun"))',
         "unterminated string", 2, 12),
        ('(lex X (cat N)\n  (variant "moun', "unterminated string", 2, 12),
        ('(lex X (cat N)\n  (variant "mo\\\nun"))',
         "unterminated string", 2, 12),
        ('(lex X (cat N)\n  (variant "moun\\', "unterminated string", 2, 12),
        ('(lex X (cat N)\n  (variant "\\"q\\\\" (lan HT)) oops)',
         "expected a non-empty list", 2, 30),
        ("(grammar g)\n(lex (X) (cat N))", "expected lexeme id", 2, 6),
        ("(tree t (class initial)\n  (node N (bottom lan)))",
         "expected (attr value...) in bottom", 2, 19),
        ('(lex X (cat N)\n  (variant "x" (lan HT GP HT)))',
         "attribute 'lan' repeats a value", 2, 16),
        ("(tree t (class initial)\n  (node N (children\n    (leaf N))))",
         "expected (node ...)", 3, 5),
        ("(tree t (class initial)\n  (node N (kind branch)))",
         "unknown node kind 'branch'", 2, 11),
        ("(tree t (class initial)\n  (root N))",
         "unknown tree clause 'root'", 2, 3),
        ("(domain lan (HT))\n  (tree t (class initial))",
         "tree 't' lacks a class or a root", 2, 3),
        ('(lex X (cat N)\n  (form "x"))',
         "unknown lexeme clause 'form'", 2, 3),
        ('(domain lan (HT))\n  (lex X (variant "x" (lan HT)))',
         "lexeme 'X' lacks a category", 2, 3),
        ('(fuse (lan HT) ("a" "b") ("ab"))\n(fuse (lan) ("a") ("b"))',
         "fusion rule with empty language guard", 2, 7),
        ('(domain lan (HT))\n  (fuse (lan HT) ("a" "b"))',
         "fusion rule needs a pattern and a replacement", 2, 3),
        ('(fuse (lan HT)\n  ("a" b) ("ab"))',
         "pattern tokens must be quoted", 2, 8),
        ('(fuse (lan HT)\n  ("a") ())', "empty replacement", 2, 9),
        ('(domain lan (HT))\n  (fuse (lan HT) a ("b"))',
         "expected pattern tokens", 2, 3),
        ("(domain lan (HT))\n(domain cns + -)",
         "domain 'cns' needs one value list", 2, 1),
    ], ids=["string-at-newline", "string-at-end", "escaped-newline",
            "escape-at-end", "after-escapes", "atom-wanted", "clause-wanted",
            "repeated-value", "node-wanted", "node-kind", "tree-clause",
            "tree-root", "lexeme-clause", "lexeme-category", "fusion-guard",
            "fusion-parts", "fusion-unquoted", "fusion-empty", "fusion-bare",
            "domain-values"])
    def test_message_and_position(self, text, message, line, column):
        with pytest.raises(GrammarSyntaxError) as err:
            load_grammar(text)
        assert (str(err.value), err.value.line, err.value.column) == (
            "line %d, column %d: %s" % (line, column, message), line, column)

    def test_escaped_characters_are_taken_as_they_are(self):
        grammar = load_grammar('(tree t (class initial) (node N (kind anchor)))'
                               '\n(lex X (cat N) (variant "\\"q\\\\n"))')
        assert grammar.lexeme("X").variants[0].surface == '"q\\n'

    def test_unquoted_surface_rejected(self):
        with pytest.raises(GrammarSyntaxError):
            load_grammar("(lex X (cat N) (variant moun (lan HT)))")

    @pytest.mark.parametrize("clause,emptied", [
        ("(cat N)", "(cat )"),
        ("(version 1)", "(version )"),
        ("(kind anchor)", "(kind )"),
        ("(class initial)", "(class )"),
        ("(grammar creole (version 1))", "(grammar)"),
        ("(domain lan (HT GP MQ GF))", "(domain)"),
    ], ids=["cat", "version", "kind", "class", "grammar", "domain"])
    def test_empty_clause_is_a_syntax_error(self, clause, emptied):
        # each once raised IndexError, which the CLI printed as a traceback
        text = grammar_text()
        assert clause in text
        with pytest.raises(GrammarSyntaxError, match="expected"):
            load_grammar(text.replace(clause, emptied, 1))


class TestValidationFindings:
    def test_undeclared_attribute(self):
        text = """
        (domain lan (HT GP))
        (tree t (class initial)
          (node N (kind internal)
            (bottom (gen m))
            (children (node N (kind anchor)))))
        (lex X (cat N) (variant "x" (lan HT)))
        """
        with pytest.raises(ValidationError) as err:
            load_grammar(text)
        assert any("gen" in f for f in err.value.findings)

    def test_foot_root_mismatch(self):
        text = """
        (domain lan (HT GP))
        (tree t0 (class initial)
          (node N (kind internal)
            (children (node N (kind anchor)))))
        (tree t1 (class aux)
          (node N (kind internal)
            (children
              (node M (kind foot))
              (node N (kind anchor)))))
        (lex X (cat N) (variant "x" (lan HT)))
        """
        with pytest.raises(ValidationError) as err:
            load_grammar(text)
        assert any("foot/root mismatch" in f for f in err.value.findings)

    def test_unfilled_anchor_category(self):
        text = """
        (domain lan (HT GP))
        (tree t (class initial)
          (node N (kind internal)
            (children (node N (kind anchor)))))
        (lex X (cat M) (variant "x" (lan HT)))
        """
        with pytest.raises(ValidationError) as err:
            load_grammar(text)
        assert any("anchor" in f for f in err.value.findings)

    def test_unmatched_substitution_site(self):
        text = """
        (domain lan (HT GP))
        (tree t (class initial)
          (node N (kind internal)
            (children
              (node Z (kind subst))
              (node N (kind anchor)))))
        (lex X (cat N) (variant "x" (lan HT)))
        """
        with pytest.raises(ValidationError) as err:
            load_grammar(text)
        assert any("substitution site" in f for f in err.value.findings)

    def test_variant_without_lan(self):
        text = """
        (domain lan (HT GP))
        (tree t (class initial)
          (node N (kind internal)
            (children (node N (kind anchor)))))
        (lex X (cat N) (variant "x"))
        """
        with pytest.raises(ValidationError) as err:
            load_grammar(text)
        assert any("does not bind lan" in f for f in err.value.findings)

    @pytest.mark.parametrize("domain, lan", [
        ("(domain lan (HT GP))", "(lan HT)"), ("", "")],
        ids=["undeclared-code", "no-lan"])
    def test_fusion_guard_names_a_dialect(self, domain, lan):
        # a grammar without lan has no dialect a guard could name
        text = domain + """
        (tree t (class initial)
          (node N (kind internal)
            (children (node N (kind anchor)))))
        (lex X (cat N) (variant "x" %s))
        (fuse (lan MQ) ("x" "x") ("xx"))
        """ % lan
        with pytest.raises(ValidationError) as err:
            load_grammar(text)
        assert err.value.findings == [
            "fusion rule 'x x' uses unknown language codes"]

    @pytest.mark.parametrize("extra,finding", [
        ("(tree t (class initial)\n"
         "  (node N (kind internal) (children (node N (kind anchor)))))",
         "duplicate tree name 't'"),
        ('(lex X (cat N) (variant "y" (lan GP)))', "duplicate lexeme id 'X'"),
        ("(tree u (class initial) (node N (kind internal)\n"
         "  (children (node N (kind foot)) (node N (kind anchor)))))",
         "initial tree 'u' has a foot node"),
        ("(tree u (class aux)\n"
         "  (node N (kind internal) (children (node N (kind anchor)))))",
         "auxiliary tree 'u' has 0 foot nodes"),
        ("(tree u (class aux) (node N (kind internal)\n"
         "  (children (node N (kind foot)) (node N (kind anchor))\n"
         "            (node N (kind foot)))))",
         "auxiliary tree 'u' has 2 foot nodes"),
        ("(tree u (class initial) (node N (kind internal)\n"
         "  (children (node N (kind anchor)) (node N (kind anchor)))))",
         "tree 'u' has more than one anchor"),
    ], ids=["duplicate-tree", "duplicate-lexeme", "initial-foot",
            "aux-no-foot", "aux-two-feet", "two-anchors"])
    def test_tree_and_lexeme_findings(self, extra, finding):
        text = """
        (domain lan (HT GP))
        (tree t (class initial)
          (node N (kind internal)
            (children (node N (kind anchor)))))
        (lex X (cat N) (variant "x" (lan HT)))
        """ + extra
        with pytest.raises(ValidationError) as err:
            load_grammar(text)
        assert err.value.findings == [finding]

    @pytest.mark.parametrize("pattern,replacement", [
        ((), ("tap",)), (("te", "ap"), ())], ids=["pattern", "replacement"])
    def test_empty_fusion_part(self, grammar, pattern, replacement):
        # the loader rejects an empty token list, so build the grammar
        rule = FusionRule(pattern=pattern, replacement=replacement)
        assert validate(Grammar(grammar.domains, grammar.trees,
                                grammar.lexicon, [rule], grammar.metadata)) \
            == ["fusion rule with empty pattern or replacement"]


SHIPPED_TEXT = grammar_text()
# one edit: a character inserted, deleted or replaced at a position
_EDIT = st.tuples(st.integers(0, len(SHIPPED_TEXT) - 1),
                  st.sampled_from([""] + sorted(set(SHIPPED_TEXT))),
                  st.integers(0, 1)).filter(lambda edit: edit[1] or edit[2])


class TestMutatedGrammar:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(edits=st.lists(_EDIT, min_size=1, max_size=3))
    def test_loader_raises_typed_errors_and_round_trips(self, edits):
        """Text a few characters off the shipped grammar either fails with
        a syntax error or findings, or loads and round-trips exactly."""
        text = SHIPPED_TEXT
        for at, inserted, removed in edits:
            text = text[:at] + inserted + text[at + removed:]
        try:
            grammar = load_grammar(text)
        except (GrammarSyntaxError, ValidationError):
            return
        once = serialize(grammar)
        reloaded = load_grammar(once)
        assert reloaded == grammar
        assert serialize(reloaded) == once

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(at=st.integers(0, len(SHIPPED_TEXT) - 1),
           edit=st.sampled_from(["truncate", "delete", "(", ")", '"', ";",
                                 "\n"]))
    def test_one_edit_fails_only_as_bad_input(self, at, edit):
        """The descent indexes a token list: a text cut short, missing a
        character or with one more delimiter loads or raises a syntax
        error or findings, never IndexError, KeyError, RecursionError or
        TypeError, and a syntax error names a place inside the text."""
        text = SHIPPED_TEXT[:at] if edit == "truncate" else \
            SHIPPED_TEXT[:at] + SHIPPED_TEXT[at + 1:] if edit == "delete" \
            else SHIPPED_TEXT[:at] + edit + SHIPPED_TEXT[at:]
        try:
            load_grammar(text)
        except ValidationError:
            pass
        except GrammarSyntaxError as exc:
            lines = text.split("\n")
            assert 1 <= exc.line <= len(lines)
            assert 1 <= exc.column <= len(lines[exc.line - 1])
