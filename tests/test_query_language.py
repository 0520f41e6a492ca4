"""Tests for query compilation, evaluation, autocomplete and pills."""

import pytest

from repro.core.query.autocomplete import Autocompleter
from repro.core.query.evaluator import QueryEvaluator
from repro.core.query.language import QueryLanguage
from repro.core.query.parser import parse_query
from repro.core.query.pills import CallPill, FieldPill, PillQuery, TextPill
from repro.core.ranking import Ranker
from repro.errors import QueryCompileError
from repro.providers.base import RequestContext
from repro.providers.execution import ExecutionEngine
from repro.providers.fields import FieldResolver
from repro.providers.suite import default_spec


@pytest.fixture
def language():
    return QueryLanguage(default_spec())


@pytest.fixture
def evaluator(tiny_store, tiny_registry, language):
    return QueryEvaluator(
        tiny_store,
        ExecutionEngine(tiny_registry, store=tiny_store),
        language,
        Ranker(FieldResolver(tiny_store)),
    )


@pytest.fixture
def completer(language, tiny_store):
    return Autocompleter(language, tiny_store)


class TestLanguage:
    def test_fields_generated_from_spec(self, language):
        fields = language.field_names()
        assert "owned_by" in fields
        assert "type" in fields  # search_field alias of of_type
        assert "of_type" not in fields
        assert "badges" not in fields  # search visibility off

    def test_compile_binds_providers(self, language):
        compiled = language.compile("type: table & owned_by: 'Alex'")
        assert compiled.providers_used() == ["of_type", "owned_by"]

    def test_compile_text_terms(self, language):
        compiled = language.compile("sales 'big numbers'")
        assert compiled.text_terms() == ["sales", "big numbers"]

    def test_unknown_field_suggests(self, language):
        with pytest.raises(QueryCompileError, match="did you mean"):
            language.compile("owned_byy: 'Alex'")

    def test_unknown_call_rejected(self, language):
        with pytest.raises(QueryCompileError):
            language.compile(":bogus_provider()")

    def test_call_missing_required_arg(self, language):
        with pytest.raises(QueryCompileError, match="requires a value"):
            language.compile(":owned_by()")

    def test_call_with_optional_inputs_ok(self, language):
        compiled = language.compile(":recent_documents()")
        assert compiled.providers_used() == ["recent_documents"]

    def test_compile_accepts_ast(self, language):
        node = parse_query("badged: endorsed")
        compiled = language.compile(node)
        assert compiled.node == node

    def test_callable_providers_listed(self, language):
        callables = language.callable_providers()
        assert "recents" in callables
        assert "recent_documents" in callables


class TestEvaluator:
    def ctx(self, user=""):
        return RequestContext(user_id=user)

    def test_field_term(self, evaluator):
        result = evaluator.search("badged: endorsed")
        assert set(result.artifact_ids()) == {"t-orders", "d-sales"}

    def test_text_term_conjunctive_tokens(self, evaluator):
        result = evaluator.search("'sales dashboard'")
        assert result.artifact_ids() == ["d-sales"]

    def test_and_intersects(self, evaluator):
        result = evaluator.search("type: table & badged: endorsed")
        assert result.artifact_ids() == ["t-orders"]

    def test_or_unions(self, evaluator):
        result = evaluator.search("badged: endorsed | badged: certified")
        assert set(result.artifact_ids()) == {
            "t-orders", "d-sales", "t-customers",
        }

    def test_not_subtracts_from_catalog(self, evaluator, tiny_store):
        result = evaluator.search("!type: table")
        assert set(result.artifact_ids()) == (
            set(tiny_store.artifact_ids())
            - {"t-orders", "t-customers", "t-web"}
        )

    def test_not_within_universe(self, evaluator):
        result = evaluator.search(
            "!badged: endorsed", universe=["t-orders", "t-web"]
        )
        assert result.artifact_ids() == ["t-web"]

    def test_universe_scopes_all_terms(self, evaluator):
        result = evaluator.search("type: table", universe=["t-web"])
        assert result.artifact_ids() == ["t-web"]

    def test_provider_call(self, evaluator):
        result = evaluator.search(
            ":recents()", context=self.ctx(user="u-dee")
        )
        assert set(result.artifact_ids()) == {"w-q1", "d-sales"}

    def test_paper_flagship_shape(self, evaluator):
        result = evaluator.search(
            "type: table owned by: 'Ann Lee' badged: endorsed "
            "badged by: 'Bob Ray' & 'orders'"
        )
        assert result.artifact_ids() == ["t-orders"]

    def test_empty_result(self, evaluator):
        assert evaluator.search("type: table & badged: certified "
                                "& web").is_empty()

    def test_ranking_applied_with_global_weights(self, evaluator):
        result = evaluator.search("type: table")
        # t-orders: favorite + most views must rank first under Listing 1.
        assert result.artifact_ids()[0] == "t-orders"

    def test_name_match_outranks_description_match(self, evaluator):
        # "orders": in the NAME of t-orders/v-orders; description of none.
        result = evaluator.search("orders")
        assert result.entries[0].artifact_id in ("t-orders", "v-orders")

    def test_limit_and_total(self, evaluator):
        result = evaluator.search("type: table", limit=2)
        assert len(result.entries) == 2
        assert result.total == 3

    def test_unknown_field_raises_at_search(self, evaluator):
        with pytest.raises(QueryCompileError):
            evaluator.search("bogus_field: x")


class TestAutocomplete:
    def test_empty_input_suggests_fields(self, completer):
        suggestions = completer.suggest("")
        assert all(s.kind == "field" for s in suggestions)

    def test_field_prefix(self, completer):
        texts = [s.text for s in completer.suggest("own")]
        assert texts == ["owned_by: "]

    def test_value_position_user(self, completer):
        texts = [s.text for s in completer.suggest("owned_by: ")]
        assert '"Ann Lee"' in texts

    def test_value_position_with_prefix(self, completer):
        texts = [s.text for s in completer.suggest("owned_by: An")]
        assert texts == ['"Ann Lee"']

    def test_value_position_badge(self, completer):
        texts = [s.text for s in completer.suggest("badged: ")]
        assert texts == ["certified", "endorsed"]

    def test_value_position_type(self, completer):
        texts = [s.text for s in completer.suggest("type: ")]
        assert "table" in texts
        assert "workbook" in texts

    def test_spaced_field_value_position(self, completer):
        texts = [s.text for s in completer.suggest("badged by: ")]
        assert '"Bob Ray"' in texts

    def test_provider_call_position(self, completer):
        texts = [s.text for s in completer.suggest(":rec")]
        assert ":recent_documents()" in texts
        assert ":recents()" in texts

    def test_after_complete_term_offers_operators(self, completer):
        suggestions = completer.suggest("type: table ")
        kinds = {s.kind for s in suggestions}
        assert "operator" in kinds

    def test_unterminated_quote_no_suggestions(self, completer):
        assert completer.suggest("owned_by: 'An") == []

    def test_limit(self, completer):
        assert len(completer.suggest("", limit=3)) == 3

    def test_suggestions_carry_descriptions(self, completer):
        suggestion = next(s for s in completer.suggest("own"))
        assert "owned" in suggestion.detail.lower() or suggestion.detail


class TestPills:
    def test_field_pills_and_text(self, language):
        pills = PillQuery().field("type", "table").text("sales")
        node = pills.to_node()
        assert node == parse_query("type: table & sales")

    def test_or_connector_groups(self):
        pills = (
            PillQuery()
            .field("badged", "endorsed")
            .field("badged", "certified", connector="or")
        )
        assert pills.to_node() == parse_query(
            "badged: endorsed | badged: certified"
        )

    def test_negated_pill(self):
        pills = PillQuery().field("type", "table").text("hr", negated=True)
        assert pills.to_node() == parse_query("type: table & !hr")

    def test_call_pill(self):
        pills = PillQuery().call("recents")
        assert pills.to_node() == parse_query(":recents()")

    def test_labels(self):
        pills = (
            PillQuery()
            .field("type", "table")
            .text("sales", connector="or", negated=True)
        )
        assert pills.labels() == ["type: table", "or not sales"]

    def test_remove_pill(self):
        pills = PillQuery().text("a").text("b")
        pills.remove(0)
        assert pills.to_node() == parse_query("b")

    def test_empty_pill_query_raises(self):
        with pytest.raises(ValueError):
            PillQuery().to_node()

    def test_invalid_connector(self):
        with pytest.raises(ValueError):
            PillQuery().text("a", connector="xor")

    def test_round_trip_through_text(self, language):
        pills = (
            PillQuery()
            .field("type", "workbook")
            .field("owned_by", "John Doe")
            .text("sales", connector="or")
        )
        text = pills.to_text()
        assert parse_query(text) == pills.to_node()

    def test_pill_objects(self):
        assert TextPill("x").label() == "x"
        assert FieldPill("a", "b").label() == "a: b"
        assert CallPill("r", "x").label() == ":r(x)"

    def test_len(self):
        assert len(PillQuery().text("a").text("b")) == 2
