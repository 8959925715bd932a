import pytest

from cargokg.queries import (
    Const,
    DateCompare,
    QuerySyntaxError,
    RoleAtom,
    SubclassAtom,
    TypeAtom,
    Var,
    _tokenize,
    parse_query,
    substitute_nominals,
)
from cargokg.patterns import DETECTORS, load_query_text

from template_tokens import TEMPLATE_TOKENS


def test_unnecessary_transshipment_template_shape():
    query = parse_query(load_query_text("unnecessary_transshipment"))
    assert query.distinct
    assert query.projection == ["c", "endCI", "vesStop"]
    assert len(query.atoms) == 10
    assert len(query.binds) == 2
    assert len(query.filters) == 1
    assert sum(1 for a in query.atoms if isinstance(a, TypeAtom)) == 2
    assert sum(1 for a in query.atoms if isinstance(a, SubclassAtom)) == 1
    assert query.filters[0] == DateCompare("vesStop", ">", "endCI")


def test_only_shipped_template_names_load():
    # the name becomes a file path under the package's data directory
    for name in ("../loop", "loop.pq", "data/loop", ""):
        with pytest.raises(KeyError):
            load_query_text(name)


def test_loop_templates_parse():
    unfiltered = parse_query(load_query_text("loop"))
    filtered = parse_query(load_query_text("loop_filtered"))
    intermediate = parse_query(load_query_text("loop_intermediate"))
    assert len(unfiltered.filters) == 0
    assert len(filtered.filters) == 2
    assert len(intermediate.filters) == 3
    assert any(
        isinstance(a, RoleAtom) and a.role == "hasCISourcePort" and a.object == Const("port1")
        for a in unfiltered.atoms
    )


def test_single_type_atom_query():
    query = parse_query("SELECT ?x WHERE { ?x a st:Port . }")
    assert query.projection == ["x"]
    assert not query.distinct
    assert query.atoms == [TypeAtom(Var("x"), Const("Port"))]


def test_unterminated_brace_reports_position():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("SELECT ?x WHERE { ?x a st:Port .")
    assert "missing }" in str(err.value)
    assert err.value.line >= 1 and err.value.column >= 1


def test_syntax_error_positions():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("SELECT ?x WHERE {\n ?x 42 st:Port .\n}")
    assert err.value.line == 2


def test_optional_trailing_dots():
    text = "SELECT ?x ?y WHERE { ?x st:hasMO ?y ?x a st:ContainerEvent }"
    query = parse_query(text)
    assert len(query.atoms) == 2


def test_keywords_case_insensitive():
    query = parse_query("select distinct ?x where { ?x a st:Port }")
    assert query.distinct


def test_projection_must_be_bound():
    with pytest.raises(QuerySyntaxError, match=r"\?ghost .*\(line 1, column 11\)"):
        parse_query("SELECT ?x ?ghost WHERE { ?x a st:Port . }")


def test_bind_source_must_exist():
    with pytest.raises(QuerySyntaxError, match=r"\?nope .*\(line 1, column 34\)"):
        parse_query(
            "SELECT ?x WHERE { ?x a st:Port . BIND( fn:substring(?nope,5,10) AS ?y ) }"
        )


def test_bind_target_must_be_fresh():
    # an atom's variable, then an earlier bind's target; the error stands
    # at the BIND that breaks the rule
    for clauses, column in (
        ("?y a st:Port . BIND( fn:substring(?x,5,10) AS ?y )", 49),
        ("BIND( fn:substring(?x,5,10) AS ?y ) . BIND( fn:substring(?x,1,8) AS ?y )", 72),
    ):
        with pytest.raises(QuerySyntaxError, match="bind target") as err:
            parse_query("SELECT ?x WHERE { ?x a st:Port . %s }" % clauses)
        assert (err.value.line, err.value.column) == (1, column), clauses


def test_an_unexpected_end_is_named_eof():
    with pytest.raises(QuerySyntaxError, match="expected WHERE, found '<eof>'"):
        parse_query("SELECT ?x")


def test_filter_var_must_exist():
    with pytest.raises(QuerySyntaxError, match=r"\?w ") as err:
        parse_query(
            "SELECT ?x WHERE {\n"
            "  ?x a st:Port .\n"
            "  FILTER ( xsd:date(?x) > xsd:date(?w) ) }"
        )
    assert (err.value.line, err.value.column) == (3, 3)


@pytest.mark.parametrize("name", sorted({template for template, _ in DETECTORS.values()}))
def test_template_token_streams_are_pinned(name):
    assert _tokenize(load_query_text(name)) == TEMPLATE_TOKENS[name]


def test_crlf_tabs_and_comments_keep_token_positions():
    # a carriage return and a tab take one column each; only "\n" ends a line
    text = "SELECT ?x\r\n\tWHERE { # a comment\r\n\t\t?x a st:Port }\r\n"
    assert _tokenize(text) == [
        ("word", "SELECT", 1, 1), ("var", "?x", 1, 8), ("word", "WHERE", 2, 2),
        ("op", "{", 2, 8), ("var", "?x", 3, 3), ("word", "a", 3, 6),
        ("pname", "st:Port", 3, 8), ("op", "}", 3, 16), ("eof", "", 4, 1),
    ]
    for text, position in (
        ("SELECT ?x\r\nWHERE {\r\n\t?x a st:Port . # note\r\n\t?x st:r ?y ! }", (4, 13)),
        ("SELECT ?x WHERE {\r\n\t# a comment\r\n\t\t?x a st:Port .\r\n  @ }", (4, 3)),
    ):
        with pytest.raises(QuerySyntaxError, match="unexpected character") as err:
            parse_query(text)
        assert (err.value.line, err.value.column) == position, text


def test_bad_prefix_rejected():
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT ?x WHERE { ?x foaf:knows ?y . }")


def test_substitute_nominals():
    query = parse_query(load_query_text("loop"))
    bound = substitute_nominals(query, {"port1": "port_a_xx", "port2": "port_b_xx"})
    consts = [
        a.object.name
        for a in bound.atoms
        if isinstance(a, RoleAtom) and isinstance(a.object, Const)
    ]
    assert "port_a_xx" in consts and "port_b_xx" in consts
    assert all(name not in ("port1", "port2") for name in consts)
    # original untouched
    consts0 = [
        a.object.name
        for a in query.atoms
        if isinstance(a, RoleAtom) and isinstance(a.object, Const)
    ]
    assert "port1" in consts0
