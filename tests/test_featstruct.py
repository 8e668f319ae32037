"""Feature structure unit tests and the exhaustive unification algebra."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creoletag.creole import grammar_text
from creoletag.dsl import load_grammar, serialize
from creoletag.errors import UndeclaredAttribute
from creoletag.featstruct import (EMPTY, AttributeDomain, Bindings,
                                  FeatureStruct, Schema, Var, disjoint,
                                  erase_attribute, meet, subsumes, unify)
from creoletag.specialize import specialize

LAN = AttributeDomain("lan", ("HT", "GP", "MQ", "GF"))
SPE = AttributeDomain("spe", ("+", "-"))
NAS = AttributeDomain("nas", ("+", "-"))
SCHEMA = Schema([LAN, SPE, NAS])


def fs(**kw):
    return FeatureStruct({k: frozenset(v) for k, v in kw.items()})


def u(a, b, schema=SCHEMA):
    """The unifier of two structures checked first, as an entry point
    checks them, or None."""
    schema.check(a)
    schema.check(b)
    result = unify(a, b)
    return None if result is None else result[0]


class TestUnify:
    def test_intersection(self):
        assert u(fs(lan="GP MQ".split()), fs(lan="MQ GF".split())) == \
            fs(lan=["MQ"])

    def test_identity_with_empty(self):
        assert u(fs(spe=["+"]), FeatureStruct()) == fs(spe=["+"])

    def test_disjoint_fails(self):
        assert u(fs(lan=["HT"]), fs(lan=["GP"])) is None

    def test_variable_binding(self):
        a = FeatureStruct({"nas": Var("X"), "lan": frozenset(["HT"])})
        b = fs(nas=["+"])
        result, env = unify(a, b)
        assert result.resolve(env) == fs(nas=["+"], lan=["HT"])
        assert env.value(Var("X")) == frozenset(["+"])

    def test_variable_aliasing(self):
        a = FeatureStruct({"nas": Var("X")})
        b = FeatureStruct({"nas": Var("Y")})
        result, env = unify(a, b)
        env = env.bind("X", frozenset(["-"]))
        assert env.value(Var("Y")) == frozenset(["-"])

    def test_empty_subset_unrepresentable(self):
        with pytest.raises(ValueError):
            FeatureStruct({"lan": frozenset()})


class TestSubsumes:
    def test_empty_subsumes_all(self):
        assert subsumes(FeatureStruct(), fs(lan=["MQ"]), SCHEMA)

    def test_superset_subsumes(self):
        assert subsumes(fs(lan=["GP", "MQ"]), fs(lan=["MQ"]), SCHEMA)

    def test_subset_does_not(self):
        assert not subsumes(fs(lan=["MQ"]), fs(lan=["GP", "MQ"]), SCHEMA)

    def test_absent_specific_is_full_domain(self):
        assert not subsumes(fs(spe=["+"]), FeatureStruct(), SCHEMA)


class TestErase:
    def test_erase_bound(self):
        assert erase_attribute(fs(lan=["MQ"], spe=["+"]), "lan") == fs(spe=["+"])

    def test_erase_absent_is_identity(self):
        assert erase_attribute(FeatureStruct(), "lan") == FeatureStruct()

    def test_erase_to_empty(self):
        assert erase_attribute(fs(lan=["HT", "GF"]), "lan") == FeatureStruct()


def all_structures(schema, attrs):
    """Every variable-free structure over the given attributes."""
    per_attr = []
    for attr in attrs:
        values = schema.domain(attr).values
        subsets = [None] + [frozenset(c)
                            for n in range(1, len(values) + 1)
                            for c in combinations(values, n)]
        per_attr.append([(attr, s) for s in subsets])
    out = []
    a_opts, b_opts = per_attr
    for attr_a, sub_a in a_opts:
        for attr_b, sub_b in b_opts:
            bindings = {}
            if sub_a is not None:
                bindings[attr_a] = sub_a
            if sub_b is not None:
                bindings[attr_b] = sub_b
            out.append(FeatureStruct(bindings))
    return out


def unification_table(schema, structures):
    index = {s: i for i, s in enumerate(structures)}
    table = {}
    for i, a in enumerate(structures):
        for j, b in enumerate(structures):
            result = u(a, b, schema)
            table[i, j] = None if result is None else index[result]
    return index, table


ALG_SCHEMA = Schema([AttributeDomain("p", ("1", "2", "3")),
                     AttributeDomain("q", ("x", "y", "z"))])
STRUCTURES = all_structures(ALG_SCHEMA, ("p", "q"))


class TestAlgebra:
    """Exhaustive laws over two attributes with three-value domains."""

    def test_universe_size(self):
        assert len(STRUCTURES) == 64  # (2^3)^2 structures

    def test_commutativity_and_closure(self):
        index, table = unification_table(ALG_SCHEMA, STRUCTURES)
        for i in range(len(STRUCTURES)):
            for j in range(len(STRUCTURES)):
                assert table[i, j] == table[j, i]

    def test_idempotence(self):
        for s in STRUCTURES:
            assert u(s, s, ALG_SCHEMA) == s

    def test_associativity_with_failure_absorption(self):
        index, table = unification_table(ALG_SCHEMA, STRUCTURES)
        n = len(STRUCTURES)
        for i in range(n):
            for j in range(n):
                ij = table[i, j]
                for k in range(n):
                    jk = table[j, k]
                    left = None if ij is None else table[ij, k]
                    right = None if jk is None else table[i, jk]
                    assert left == right

    def test_no_empty_subsets_in_results(self):
        # unify, resolve and erase_attribute build their results without
        # the constructor's checks, so each result must also be what the
        # constructor builds from its items, with the same hash
        def canonical(s):
            rebuilt = FeatureStruct(dict(s.items()))
            return s == rebuilt and hash(s) == hash(rebuilt)

        for a in STRUCTURES:
            with_var = FeatureStruct({**a, "p": Var("X")})
            for b in STRUCTURES:
                for left in (a, with_var):
                    unified = unify(left, b)
                    if unified is None:
                        continue
                    result, env = unified
                    assert all(cell for cell in result.values())
                    for out in (result, result.resolve(env),
                                erase_attribute(result, "p"),
                                erase_attribute(result, "q")):
                        assert canonical(out)

    def test_subsumption_of_unification(self):
        for a in STRUCTURES:
            for b in STRUCTURES:
                result = u(a, b, ALG_SCHEMA)
                if result is not None:
                    assert subsumes(a, result, ALG_SCHEMA)
                    assert subsumes(b, result, ALG_SCHEMA)


CODE_SCHEMA = Schema(list(ALG_SCHEMA) + [AttributeDomain("r", ("only",))])
UNBOUND = Bindings()


def code(structure, env=UNBOUND):
    return CODE_SCHEMA.code(structure, env)


@st.composite
def planes(draw):
    """A structure over CODE_SCHEMA with its bindings: each attribute
    absent, a constant, or a variable that is unbound, bound, aliased to
    an unbound one or aliased to a bound one."""
    cells, env = {}, Bindings()
    for dom in CODE_SCHEMA:
        subsets = st.frozensets(st.sampled_from(dom.values), min_size=1,
                                max_size=2)
        how = draw(st.sampled_from(("constant", "bound", "aliased-bound",
                                    "absent", "unbound", "aliased")))
        if how == "absent":
            continue
        if how == "constant":
            cells[dom.name] = draw(subsets)
            continue
        var = dom.name + "A"
        cells[dom.name] = Var(var)
        if how.startswith("aliased"):
            env = env.bind(var, dom.name + "B")  # B is unbound
        if how in ("bound", "aliased-bound"):
            env = env.bind(var, draw(subsets))
    return FeatureStruct(cells), env


def fresh_code(schema, structure, env):
    """`structure`'s code, made anew from the schema's bits."""
    code = schema._full
    for attr, cell in structure.items():
        if isinstance(cell, Var):
            cell = env.value(cell)
        if cell is not None:
            bits = schema._bits[attr]
            code &= schema._full - sum(bits.values()) + sum(map(bits.get, cell))
    return code


class TestCode:
    """Schema.code and Schema.clash against disjoint, the scan they
    stand in for, and against a fresh encoding."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(planes(), min_size=1, max_size=4))
    def test_kept_code_is_a_fresh_one(self, drawn):
        # planes name their variables alike, so each structure is coded
        # under every drawn environment in turn, its kept code reused
        for structure, _ in drawn:
            for _, env in drawn + drawn:
                assert code(structure, env) == \
                    fresh_code(CODE_SCHEMA, structure, env)

    def test_kept_code_follows_the_schema(self):
        # grammars loaded from text share equal parsed structures, one
        # object each, which the shipped grammar's layout codes too
        grammar = load_grammar(grammar_text())
        text = serialize(specialize(grammar, "HT"))
        ht, again = load_grammar(text), load_grammar(text)

        def planes_of(g):
            return [plane for tree in g.trees for _, node in tree.nodes()
                    for plane in (node.top, node.bottom) if plane]
        planes = planes_of(ht)
        assert all(a is b for a, b in zip(planes, planes_of(again)))
        env = Bindings()
        for plane in planes:
            for attr, cell in plane.items():
                if isinstance(cell, Var):
                    env = env.bind(cell.name, frozenset(
                        ht.schema.domain(attr).values[:1]))
        for schema in (grammar.schema, ht.schema, again.schema, grammar.schema):
            for plane in planes:
                for plane_env in (UNBOUND, env):
                    assert schema.code(plane, plane_env) == \
                        fresh_code(schema, plane, plane_env)
        assert grammar.schema.code(EMPTY, UNBOUND) != \
            ht.schema.code(EMPTY, UNBOUND)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(planes(), planes())
    def test_clash_is_disjoint(self, a, b):
        (fa, ea), (fb, eb) = a, b
        assert CODE_SCHEMA.clash(code(fa, ea), code(fb, eb)) == \
            (disjoint(fa, ea, fb, eb) is not None)

    def test_clash_is_disjoint_on_every_constant_pair(self):
        for a in STRUCTURES:
            for b in STRUCTURES:
                assert CODE_SCHEMA.clash(code(a), code(b)) == \
                    (disjoint(a, UNBOUND, b, UNBOUND) is not None)

    def test_absent_attribute_is_a_full_field(self):
        full_q = fs(p=["1"], q=["x", "y", "z"], r=["only"])
        assert code(fs(p=["1"])) == code(full_q)
        assert code(FeatureStruct({"p": frozenset(["1"]), "q": Var("Q")})) \
            == code(full_q)
        assert code(EMPTY) == code(fs(p=["1", "2", "3"], q=["x", "y", "z"],
                                      r=["only"]))

    def test_guard_carry_stays_in_its_field(self):
        # a full field of a & b carries into its own guard bit only, so an
        # empty field above it still shows, and so does one below it
        clash = CODE_SCHEMA.clash
        full_p, full_q = ["1", "2", "3"], ["x", "y", "z"]
        assert clash(code(fs(p=full_p, q=["x"])), code(fs(p=full_p, q=["y"])))
        assert clash(code(fs(p=["1"], q=full_q)), code(fs(p=["2"], q=full_q)))
        assert not clash(code(fs(p=full_p, q=full_q, r=["only"])),
                         code(fs(p=full_p, q=full_q, r=["only"])))
        assert not clash(code(EMPTY), code(EMPTY))

    def test_out_of_domain_value_is_a_typed_error(self):
        with pytest.raises(UndeclaredAttribute, match="'4'.*'p'"):
            code(fs(p=["1", "4"]))
        env = Bindings().bind("Q", frozenset(["w"]))
        with pytest.raises(UndeclaredAttribute, match="'w'.*'q'"):
            code(FeatureStruct({"q": Var("Q")}), env)
        with pytest.raises(UndeclaredAttribute, match="'s'"):
            code(fs(s=["x"]))


# --- the environment against the unification it replaced ---------------------

class ChainBindings:
    """The environment unify used to thread, kept as an oracle: an alias
    may name another alias, and a lookup follows the chain."""

    def __init__(self, mapping=None):
        self._map = dict(mapping) if mapping else {}

    def root(self, name):
        seen = name
        while isinstance(self._map.get(seen), str):
            seen = self._map[seen]
        return seen

    def value(self, var):
        val = self._map.get(self.root(var.name))
        return val if isinstance(val, frozenset) else None

    def bind(self, name, value):
        new = dict(self._map)
        new[self.root(name)] = value
        return ChainBindings(new)


def chain_meet_cells(a, b, env):
    """The oracle's meet of two cells: (cell, env), or None."""
    a_var, b_var = isinstance(a, Var), isinstance(b, Var)
    if not a_var and not b_var:
        met = meet(a, b)
        return (met, env) if met else None
    if a_var and b_var:
        ra, rb = env.root(a.name), env.root(b.name)
        if ra == rb:
            return a, env
        met, vb = env._map.get(ra), env._map.get(rb)
        if vb is not None:
            met = vb if met is None else meet(met, vb)
            if not met:
                return None
        new = dict(env._map)
        new[rb] = ra
        if met is not None:
            new[ra] = met
        return a, ChainBindings(new)
    if b_var:
        a, b = b, a
    root = env.root(a.name)
    bound = env._map.get(root)
    met = b if bound is None else meet(bound, b)
    return (a, env.bind(root, met)) if met else None


def chain_unify(a, b, env):
    """The oracle's unify: a copy of the environment per bound cell."""
    if not b or not a:
        return (b if not a else a), env
    out = dict(a.items())
    for attr, cell in b.items():
        if attr not in out:
            out[attr] = cell
            continue
        met = chain_meet_cells(out[attr], cell, env)
        if met is None:
            return None
        out[attr], env = met
    return FeatureStruct._of(tuple(sorted(out.items()))), env


VAR_NAMES = {dom.name: [Var(dom.name + n) for n in "ABC"] for dom in ALG_SCHEMA}
SUBSETS = {dom.name: [frozenset(c) for n in (1, 2, 3)
                      for c in combinations(dom.values, n)]
           for dom in ALG_SCHEMA}


@st.composite
def sharing(draw):
    """A structure over ALG_SCHEMA whose cells are drawn from few
    variables, shared with the other draws, and few subsets, equal or the
    same object; a variable is sometimes a fresh object of a drawn name."""
    cells = {}
    for dom in ALG_SCHEMA:
        how = draw(st.sampled_from(("absent", "constant", "variable",
                                    "fresh")))
        if how == "constant":
            cells[dom.name] = draw(st.sampled_from(SUBSETS[dom.name]))
        elif how != "absent":
            var = draw(st.sampled_from(VAR_NAMES[dom.name]))
            cells[dom.name] = Var(var.name) if how == "fresh" else var
    return FeatureStruct(cells)


def assert_one_hop(env):
    for name, val in env._map.items():
        if isinstance(val, str):
            assert not isinstance(env._map.get(val), str), \
                "%s -> %s -> %s" % (name, val, env._map[val])


def assert_like_oracle(pairs):
    """Unify each pair in turn, threading one environment as a search
    does (a failed step leaves it as it was), with unify and with the
    oracle: the same outcome, result and value for every variable."""
    env, old = Bindings(), ChainBindings()
    for a, b in pairs:
        got, want = unify(a, b, env), chain_unify(a, b, old)
        assert (got is None) == (want is None)
        if got is None:
            continue
        assert got[0] == want[0]
        env, old = got[1], want[1]
        assert_one_hop(env)
        assert got[0].resolve(env) == want[0].resolve(old)
        for var in (v for names in VAR_NAMES.values() for v in names):
            assert env.value(var) == old.value(var)


class TestEnvironment:
    """unify and Bindings against the chain-following oracle above."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(sharing(), sharing()), min_size=1, max_size=8))
    def test_unification_sequences_match_the_oracle(self, pairs):
        assert_like_oracle(pairs)

    def test_a_merge_repoints_the_absorbed_class(self):
        # B's class holds C; A absorbs it, so C must name A directly
        p = {name: Var(name) for name in ("A", "B", "C")}
        env = unify(FeatureStruct({"p": p["B"]}),
                    FeatureStruct({"p": p["C"]}))[1]
        env = unify(FeatureStruct({"p": p["A"]}),
                    FeatureStruct({"p": p["B"]}), env)[1]
        assert env._map == {"C": "A", "B": "A"}
        assert env.root("C") == "A"

    def test_a_two_hop_alias_is_caught(self):
        with pytest.raises(AssertionError, match="C -> B -> A"):
            assert_one_hop(Bindings._of({"C": "B", "B": "A"}))

    def test_a_failed_unification_leaves_the_environment(self):
        # p narrows A, a write to a copy, before q fails
        a = FeatureStruct({"p": Var("A"), "q": frozenset("x")})
        env = Bindings().bind("A", frozenset("12"))
        before = dict(env._map)
        assert unify(a, fs(p=["1"], q=["y"]), env) is None
        assert env._map == before
