"""Property-based tests for the query language.

Invariants: generated ASTs render to text that reparses to the same AST;
the lexer never loses or invents tokens for word inputs; evaluation obeys
set-algebra laws on the tiny catalog.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query.ast import (
    And,
    FieldTerm,
    Not,
    Or,
    ProviderCall,
    QueryNode,
    TextTerm,
)
from repro.core.query.evaluator import QueryEvaluator
from repro.core.query.language import QueryLanguage
from repro.core.query.lexer import tokenize_query
from repro.core.query.parser import parse_query
from repro.core.ranking import Ranker
from repro.providers.fields import FieldResolver
from repro.providers.suite import default_spec
from tests.conftest import build_tiny_store

# -- AST generation strategies ----------------------------------------------

words = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_",
    min_size=1,
    max_size=8,
).filter(lambda w: w not in ("and", "or", "not") and not w[0].isdigit())

quoted_values = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz ABC'\"",
    min_size=1,
    max_size=12,
).map(str.strip).filter(bool)


def leaf_nodes():
    return st.one_of(
        words.map(TextTerm),
        quoted_values.map(TextTerm),
        st.tuples(words, st.one_of(words, quoted_values)).map(
            lambda fv: FieldTerm(field=fv[0], value=fv[1])
        ),
        words.map(lambda name: ProviderCall(name=name)),
        st.tuples(words, words).map(
            lambda na: ProviderCall(name=na[0], argument=na[1])
        ),
    )


def query_nodes(max_depth=3):
    return st.recursive(
        leaf_nodes(),
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=4).map(
                lambda cs: And(children=tuple(cs))
            ),
            st.lists(children, min_size=2, max_size=4).map(
                lambda cs: Or(children=tuple(cs))
            ),
            children.map(lambda c: Not(child=c)),
        ),
        max_leaves=8,
    )


class TestRoundTripProperty:
    @given(node=query_nodes())
    @settings(max_examples=200, deadline=None)
    def test_to_text_reparses_to_same_ast(self, node: QueryNode):
        text = node.to_text()
        reparsed = parse_query(text)
        assert _normalize(reparsed) == _normalize(node)

    @given(node=query_nodes())
    @settings(max_examples=100, deadline=None)
    def test_rendered_text_lexes(self, node: QueryNode):
        tokens = tokenize_query(node.to_text())
        assert tokens[-1].kind == "EOF"


def _normalize(node: QueryNode) -> QueryNode:
    """Collapse nested And/Or so flattening differences don't fail equality."""
    if isinstance(node, And):
        flat = []
        for child in (_normalize(c) for c in node.children):
            if isinstance(child, And):
                flat.extend(child.children)
            else:
                flat.append(child)
        return And(tuple(flat))
    if isinstance(node, Or):
        flat = []
        for child in (_normalize(c) for c in node.children):
            if isinstance(child, Or):
                flat.extend(child.children)
            else:
                flat.append(child)
        return Or(tuple(flat))
    if isinstance(node, Not):
        return Not(_normalize(node.child))
    return node


# -- evaluation laws ----------------------------------------------------------

_STORE = build_tiny_store()


@pytest.fixture(scope="module")
def evaluator():
    from repro.providers.builtin import builtin_engine

    language = QueryLanguage(default_spec())
    return QueryEvaluator(_STORE, builtin_engine(_STORE), language,
                          Ranker(FieldResolver(_STORE)))


simple_terms = st.sampled_from([
    "type: table",
    "type: workbook",
    "badged: endorsed",
    "badged: certified",
    "tagged: sales",
    "tagged: crm",
    "orders",
    "dashboard",
    "zebra_nothing_matches",
])


class TestEvaluationLaws:
    @given(a=simple_terms, b=simple_terms)
    @settings(max_examples=40, deadline=None)
    def test_and_commutes_as_sets(self, evaluator, a, b):
        left = set(evaluator.search(f"{a} & {b}", limit=100).artifact_ids())
        right = set(evaluator.search(f"{b} & {a}", limit=100).artifact_ids())
        assert left == right

    @given(a=simple_terms, b=simple_terms)
    @settings(max_examples=40, deadline=None)
    def test_or_is_union(self, evaluator, a, b):
        union = set(evaluator.search(f"{a} | {b}", limit=100).artifact_ids())
        only_a = set(evaluator.search(a, limit=100).artifact_ids())
        only_b = set(evaluator.search(b, limit=100).artifact_ids())
        assert union == only_a | only_b

    @given(a=simple_terms, b=simple_terms)
    @settings(max_examples=40, deadline=None)
    def test_and_is_intersection(self, evaluator, a, b):
        both = set(evaluator.search(f"{a} & {b}", limit=100).artifact_ids())
        only_a = set(evaluator.search(a, limit=100).artifact_ids())
        only_b = set(evaluator.search(b, limit=100).artifact_ids())
        assert both == only_a & only_b

    @given(a=simple_terms)
    @settings(max_examples=20, deadline=None)
    def test_double_negation_is_identity(self, evaluator, a):
        positive = set(evaluator.search(a, limit=100).artifact_ids())
        double_negative = set(
            evaluator.search(f"!!{a}", limit=100).artifact_ids()
        )
        assert positive == double_negative

    @given(a=simple_terms)
    @settings(max_examples=20, deadline=None)
    def test_excluded_middle(self, evaluator, a):
        matches = set(evaluator.search(a, limit=100).artifact_ids())
        complement = set(evaluator.search(f"!{a}", limit=100).artifact_ids())
        assert matches & complement == set()
        assert matches | complement == set(_STORE.artifact_ids())

    @given(a=simple_terms)
    @settings(max_examples=20, deadline=None)
    def test_idempotence(self, evaluator, a):
        once = set(evaluator.search(a, limit=100).artifact_ids())
        doubled = set(evaluator.search(f"{a} & {a}", limit=100).artifact_ids())
        assert once == doubled
