"""Recursive-descent parser for GaeaQL.

The DEFINE PROCESS grammar mirrors Figure 3 of the paper::

    DEFINE PROCESS P20
    OUTPUT land_cover
    ARGUMENT ( SETOF landsat_tm bands >= 3 )
    TEMPLATE {
      ASSERTIONS:
        card(bands) = 3;
        common(bands.spatialextent);
        common(bands.timestamp);
      MAPPINGS:
        land_cover.data = unsuperclassify(composite(bands), 12);
        land_cover.numclass = 12;
        land_cover.spatialextent = ANYOF bands.spatialextent;
        land_cover.timestamp = ANYOF bands.timestamp;
    }

A bare SETOF-argument name in operator position (``composite(bands)``)
is Figure-3 sugar for the argument's ``data`` attribute.
"""

from __future__ import annotations

from typing import Any

from ..core.derivation import (
    AnyOf,
    Apply,
    Assertion,
    AttrRef,
    CardinalityAssertion,
    CommonSpatialAssertion,
    CommonTemporalAssertion,
    Expr,
    ExprAssertion,
    Literal,
    ParamRef,
)
from ..errors import ParseError
from ..spatial.box import Box
from ..temporal.abstime import AbsTime
from .ast import (
    AGGREGATE_FUNCS,
    AggCall,
    ArgumentSpec,
    BoxTemplate,
    ColumnRef,
    CreateIndex,
    DefineClass,
    DefineCompound,
    DefineConcept,
    DefineProcess,
    Derive,
    DropIndex,
    Explain,
    JoinClause,
    LineageQuery,
    OpCall,
    OrderItem,
    Param,
    RunProcess,
    Select,
    SelectItem,
    Show,
    Statement,
    StepSpec,
)
from .lexer import tokenize
from .tokens import Token, TokenType

__all__ = ["parse", "parse_statement"]

#: Keywords that structure the extended SELECT clauses; every *other*
#: keyword may double as a name in expression positions (an attribute
#: legitimately called ``extent``, ``result``, ...).
_CLAUSE_KEYWORDS = frozenset({
    "SELECT", "FROM", "JOIN", "ON", "WHERE", "AND", "OVERLAPS",
    "GROUP", "ORDER", "BY", "LIMIT", "OFFSET", "ASC", "DESC",
})


def parse(source: str) -> list[Statement]:
    """Parse *source* into a list of statements."""
    return _Parser(tokenize(source)).parse_program()


def parse_statement(source: str) -> Statement:
    """Parse exactly one statement."""
    statements = parse(source)
    if len(statements) != 1:
        raise ParseError(f"expected one statement, found {len(statements)}")
    return statements[0]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self._positional_params = 0
        self._named_params: set[str] = set()

    # -- token helpers ---------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _check(self, ttype: TokenType, text: str | None = None) -> bool:
        token = self._peek()
        if token.type is not ttype:
            return False
        return text is None or token.text == text

    def _match(self, ttype: TokenType, text: str | None = None) -> Token | None:
        if self._check(ttype, text):
            return self._advance()
        return None

    def _expect(self, ttype: TokenType, text: str | None = None) -> Token:
        token = self._peek()
        if not self._check(ttype, text):
            want = text or ttype.value
            raise ParseError(
                f"expected {want!r}, found {token.text or token.type.value!r}",
                token.line, token.column,
            )
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        return self._expect(TokenType.KEYWORD, word)

    def _expect_ident(self) -> str:
        token = self._peek()
        # Allow non-reserved usage of a few soft keywords as names.
        if token.type is TokenType.IDENT:
            return self._advance().text
        raise ParseError(
            f"expected identifier, found {token.text or token.type.value!r}",
            token.line, token.column,
        )

    def _check_name(self) -> bool:
        """Whether the cursor holds a usable name: an identifier or a
        soft (non-clause) keyword."""
        token = self._peek()
        if token.type is TokenType.IDENT:
            return True
        return (token.type is TokenType.KEYWORD
                and token.text not in _CLAUSE_KEYWORDS)

    def _expect_name(self) -> str:
        """An identifier, or a soft keyword in its source spelling."""
        token = self._peek()
        if token.type is TokenType.KEYWORD \
                and token.text not in _CLAUSE_KEYWORDS:
            self._advance()
            return token.raw or token.text
        return self._expect_ident()

    # -- program ------------------------------------------------------------------

    def parse_program(self) -> list[Statement]:
        statements: list[Statement] = []
        while not self._check(TokenType.EOF):
            statements.append(self._statement())
            self._match(TokenType.SEMICOLON)
        return statements

    # -- bind-parameter placeholders -------------------------------------------

    def _placeholder(self) -> Param | None:
        """A ``?`` or ``:name`` placeholder at the cursor, if present.

        Positional indices run across the whole source (binding is per
        program, so a two-statement source with two ``?`` takes two bind
        values); the two styles must not be mixed — the bind call could
        not tell which slots its values fill.
        """
        token = self._peek()
        if self._match(TokenType.QMARK):
            if self._named_params:
                raise ParseError(
                    "cannot mix '?' and ':name' parameters in one source",
                    token.line, token.column,
                )
            param = Param(index=self._positional_params)
            self._positional_params += 1
            return param
        if token.type is TokenType.COLON:
            self._advance()
            name = self._expect_ident()
            if self._positional_params:
                raise ParseError(
                    "cannot mix '?' and ':name' parameters in one source",
                    token.line, token.column,
                )
            self._named_params.add(name)
            return Param(name=name)
        return None

    def _statement(self) -> Statement:
        token = self._peek()
        if token.is_keyword("DEFINE"):
            return self._define()
        if token.is_keyword("CLASS"):
            # The paper's §2.1.1 figure writes bare `CLASS landcover (...)`;
            # accept it as a synonym of DEFINE CLASS.
            self._advance()
            return self._define_class()
        if token.is_keyword("SELECT"):
            return self._select()
        if token.is_keyword("DERIVE"):
            return self._derive()
        if token.is_keyword("EXPLAIN"):
            self._advance()
            inner_token = self._peek()
            if inner_token.is_keyword("SELECT"):
                return Explain(inner=self._select())
            if inner_token.is_keyword("DERIVE"):
                return Explain(inner=self._derive())
            if inner_token.is_keyword("RUN"):
                return Explain(inner=self._run())
            raise ParseError(
                "EXPLAIN expects SELECT, DERIVE or RUN, found "
                f"{inner_token.text!r}",
                inner_token.line, inner_token.column,
            )
        if token.is_keyword("RUN"):
            return self._run()
        if token.is_keyword("SHOW"):
            return self._show()
        if token.is_keyword("CREATE"):
            return self._create_index()
        if token.is_keyword("DROP"):
            return self._drop_index()
        if token.is_keyword("LINEAGE"):
            self._advance()
            oid = int(self._expect(TokenType.NUMBER).text)
            return LineageQuery(oid=oid)
        raise ParseError(
            f"unexpected token {token.text!r}", token.line, token.column
        )

    # -- DEFINE dispatch -------------------------------------------------------------

    def _define(self) -> Statement:
        self._expect_keyword("DEFINE")
        if self._match(TokenType.KEYWORD, "CLASS"):
            return self._define_class()
        if self._match(TokenType.KEYWORD, "PROCESS"):
            return self._define_process()
        if self._match(TokenType.KEYWORD, "COMPOUND"):
            self._expect_keyword("PROCESS")
            return self._define_compound()
        if self._match(TokenType.KEYWORD, "CONCEPT"):
            return self._define_concept()
        token = self._peek()
        raise ParseError(
            f"DEFINE must be followed by CLASS/PROCESS/COMPOUND/CONCEPT, "
            f"found {token.text!r}", token.line, token.column,
        )

    # -- DEFINE CLASS -------------------------------------------------------------------

    def _define_class(self) -> DefineClass:
        name = self._expect_ident()
        self._expect(TokenType.LPAREN)
        attributes: list[tuple[str, str]] = []
        spatial_attr: str | None = None
        temporal_attr: str | None = None
        derived_by: str | None = None
        while not self._check(TokenType.RPAREN):
            if self._match(TokenType.KEYWORD, "ATTRIBUTES"):
                self._expect(TokenType.COLON)
                attributes.extend(self._attribute_list())
            elif self._match(TokenType.KEYWORD, "SPATIAL"):
                self._expect_keyword("EXTENT")
                self._expect(TokenType.COLON)
                pairs = self._attribute_list()
                if len(pairs) != 1:
                    raise ParseError("SPATIAL EXTENT takes one attribute")
                spatial_attr = pairs[0][0]
                attributes.append(pairs[0])
            elif self._match(TokenType.KEYWORD, "TEMPORAL"):
                self._expect_keyword("EXTENT")
                self._expect(TokenType.COLON)
                pairs = self._attribute_list()
                if len(pairs) != 1:
                    raise ParseError("TEMPORAL EXTENT takes one attribute")
                temporal_attr = pairs[0][0]
                attributes.append(pairs[0])
            elif self._match(TokenType.KEYWORD, "DERIVED"):
                self._expect_keyword("BY")
                self._expect(TokenType.COLON)
                derived_by = self._expect_ident()
            else:
                token = self._peek()
                raise ParseError(
                    f"unexpected token {token.text!r} in CLASS body",
                    token.line, token.column,
                )
        self._expect(TokenType.RPAREN)
        return DefineClass(
            name=name, attributes=tuple(attributes),
            spatial_attr=spatial_attr, temporal_attr=temporal_attr,
            derived_by=derived_by,
        )

    def _attribute_list(self) -> list[tuple[str, str]]:
        """``name = type;`` repeated while the lookahead matches."""
        out: list[tuple[str, str]] = []
        while self._check(TokenType.IDENT):
            attr = self._expect_ident()
            self._expect(TokenType.EQUALS)
            type_name = self._expect_ident()
            self._expect(TokenType.SEMICOLON)
            out.append((attr, type_name))
        return out

    # -- DEFINE PROCESS --------------------------------------------------------------------

    def _define_process(self) -> DefineProcess:
        name = self._expect_ident()
        self._expect_keyword("OUTPUT")
        output_class = self._expect_ident()
        self._expect_keyword("ARGUMENT")
        arguments = self._argument_specs()
        set_args = {a.name for a in arguments if a.is_set}
        all_args = {a.name for a in arguments}
        self._expect_keyword("TEMPLATE")
        self._expect(TokenType.LBRACE)
        assertions: list[Assertion] = []
        mappings: list[tuple[str, Expr]] = []
        parameters: list[tuple[str, Any]] = []
        while not self._check(TokenType.RBRACE):
            if self._match(TokenType.KEYWORD, "ASSERTIONS"):
                self._expect(TokenType.COLON)
                while not (
                    self._check(TokenType.KEYWORD, "MAPPINGS")
                    or self._check(TokenType.KEYWORD, "PARAMETERS")
                    or self._check(TokenType.RBRACE)
                ):
                    assertions.append(self._assertion(all_args, set_args))
                    self._expect(TokenType.SEMICOLON)
            elif self._match(TokenType.KEYWORD, "MAPPINGS"):
                self._expect(TokenType.COLON)
                while self._check(TokenType.IDENT):
                    target_cls = self._expect_ident()
                    if target_cls != output_class:
                        raise ParseError(
                            f"mapping target {target_cls!r} is not the "
                            f"output class {output_class!r}"
                        )
                    self._expect(TokenType.DOT)
                    attr = self._expect_ident()
                    self._expect(TokenType.EQUALS)
                    expr = self._expression(all_args, set_args)
                    self._expect(TokenType.SEMICOLON)
                    mappings.append((attr, expr))
            elif self._match(TokenType.KEYWORD, "PARAMETERS"):
                self._expect(TokenType.COLON)
                while self._check(TokenType.IDENT):
                    key = self._expect_ident()
                    self._expect(TokenType.EQUALS)
                    parameters.append((key, self._literal_value()))
                    self._expect(TokenType.SEMICOLON)
            else:
                token = self._peek()
                raise ParseError(
                    f"unexpected token {token.text!r} in TEMPLATE",
                    token.line, token.column,
                )
        self._expect(TokenType.RBRACE)
        return DefineProcess(
            name=name, output_class=output_class, arguments=tuple(arguments),
            assertions=tuple(assertions), mappings=tuple(mappings),
            parameters=tuple(parameters),
        )

    def _argument_specs(self) -> tuple[ArgumentSpec, ...]:
        self._expect(TokenType.LPAREN)
        specs: list[ArgumentSpec] = []
        while not self._check(TokenType.RPAREN):
            is_set = self._match(TokenType.KEYWORD, "SETOF") is not None
            class_name = self._expect_ident()
            arg_name = self._expect_ident()
            minimum = 1
            if is_set and self._match(TokenType.GE):
                minimum = int(self._expect(TokenType.NUMBER).text)
            specs.append(ArgumentSpec(
                name=arg_name, class_name=class_name, is_set=is_set,
                min_cardinality=minimum,
            ))
            if not self._match(TokenType.COMMA):
                break
        self._expect(TokenType.RPAREN)
        if not specs:
            raise ParseError("a process needs at least one argument")
        return tuple(specs)

    def _assertion(self, args: set[str], set_args: set[str]) -> Assertion:
        if self._match(TokenType.KEYWORD, "CARD"):
            self._expect(TokenType.LPAREN)
            arg = self._expect_ident()
            self._expect(TokenType.RPAREN)
            if self._match(TokenType.EQUALS):
                exact = True
            elif self._match(TokenType.GE):
                exact = False
            else:
                token = self._peek()
                raise ParseError("card() needs '=' or '>='",
                                 token.line, token.column)
            count = int(self._expect(TokenType.NUMBER).text)
            return CardinalityAssertion(arg=arg, count=count, exact=exact)
        if self._match(TokenType.KEYWORD, "COMMON"):
            self._expect(TokenType.LPAREN)
            arg = self._expect_ident()
            self._expect(TokenType.DOT)
            attr = self._expect_ident()
            self._expect(TokenType.RPAREN)
            if attr == "timestamp":
                return CommonTemporalAssertion(arg=arg, attr=attr)
            return CommonSpatialAssertion(arg=arg, attr=attr)
        expr = self._expression(args, set_args)
        return ExprAssertion(expr=expr)

    # -- expressions ------------------------------------------------------------------------

    def _expression(self, args: set[str], set_args: set[str]) -> Expr:
        if self._match(TokenType.KEYWORD, "ANYOF"):
            return AnyOf(inner=self._expression(args, set_args))
        if self._match(TokenType.DOLLAR):
            return ParamRef(name=self._expect_ident())
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.text
            value: Any = float(text) if "." in text else int(text)
            return Literal(value=value)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(value=token.text)
        if token.type is TokenType.IDENT:
            name = self._advance().text
            if self._match(TokenType.DOT):
                attr = self._expect_ident()
                if name not in args:
                    raise ParseError(
                        f"{name!r} is not a process argument",
                        token.line, token.column,
                    )
                return AttrRef(arg=name, attr=attr)
            if self._check(TokenType.LPAREN):
                self._advance()
                call_args: list[Expr] = []
                while not self._check(TokenType.RPAREN):
                    call_args.append(self._expression(args, set_args))
                    if not self._match(TokenType.COMMA):
                        break
                self._expect(TokenType.RPAREN)
                return Apply(operator=name, args=tuple(call_args))
            if name in args:
                # Figure-3 sugar: a bare argument denotes its data images.
                return AttrRef(arg=name, attr="data")
            raise ParseError(
                f"unknown name {name!r} in expression",
                token.line, token.column,
            )
        raise ParseError(
            f"unexpected token {token.text or token.type.value!r} in "
            "expression", token.line, token.column,
        )

    def _literal_value(self) -> Any:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return float(token.text) if "." in token.text else int(token.text)
        if token.type is TokenType.STRING:
            self._advance()
            return token.text
        raise ParseError(
            f"expected literal, found {token.text!r}",
            token.line, token.column,
        )

    # -- DEFINE COMPOUND PROCESS --------------------------------------------------------------

    def _define_compound(self) -> DefineCompound:
        name = self._expect_ident()
        self._expect_keyword("OUTPUT")
        output_class = self._expect_ident()
        self._expect_keyword("ARGUMENT")
        arguments = self._argument_specs()
        self._expect_keyword("STEPS")
        self._expect(TokenType.LBRACE)
        steps: list[StepSpec] = []
        while self._check(TokenType.IDENT):
            label = self._expect_ident()
            self._expect(TokenType.COLON)
            process = self._expect_ident()
            self._expect(TokenType.LPAREN)
            bindings: list[tuple[str, str]] = []
            while not self._check(TokenType.RPAREN):
                arg = self._expect_ident()
                self._expect(TokenType.EQUALS)
                if self._match(TokenType.DOLLAR):
                    source = "@" + self._expect_ident()
                else:
                    source = self._expect_ident()
                bindings.append((arg, source))
                if not self._match(TokenType.COMMA):
                    break
            self._expect(TokenType.RPAREN)
            self._expect(TokenType.SEMICOLON)
            steps.append(StepSpec(name=label, process=process,
                                  bindings=tuple(bindings)))
        self._expect(TokenType.RBRACE)
        self._expect_keyword("RESULT")
        output_step = self._expect_ident()
        return DefineCompound(
            name=name, output_class=output_class, arguments=arguments,
            steps=tuple(steps), output_step=output_step,
        )

    # -- DEFINE CONCEPT ---------------------------------------------------------------------------

    def _define_concept(self) -> DefineConcept:
        name = self._expect_ident()
        isa: list[str] = []
        members: list[str] = []
        if self._match(TokenType.KEYWORD, "ISA"):
            isa.append(self._expect_ident())
            while self._match(TokenType.COMMA):
                isa.append(self._expect_ident())
        if self._match(TokenType.KEYWORD, "MEMBERS"):
            members.append(self._expect_ident())
            while self._match(TokenType.COMMA):
                members.append(self._expect_ident())
        return DefineConcept(name=name, isa=tuple(isa), members=tuple(members))

    # -- index DDL --------------------------------------------------------------------------------

    def _create_index(self) -> CreateIndex:
        """``CREATE INDEX [name] ON class (attr)``."""
        self._expect_keyword("CREATE")
        self._expect_keyword("INDEX")
        name: str | None = None
        if self._check(TokenType.IDENT):
            name = self._expect_ident()
        self._expect_keyword("ON")
        class_name = self._expect_ident()
        self._expect(TokenType.LPAREN)
        attr = self._expect_ident()
        self._expect(TokenType.RPAREN)
        return CreateIndex(class_name=class_name, attr=attr, name=name)

    def _drop_index(self) -> DropIndex:
        """``DROP INDEX name`` or ``DROP INDEX ON class (attr)``."""
        self._expect_keyword("DROP")
        self._expect_keyword("INDEX")
        if self._match(TokenType.KEYWORD, "ON"):
            class_name = self._expect_ident()
            self._expect(TokenType.LPAREN)
            attr = self._expect_ident()
            self._expect(TokenType.RPAREN)
            return DropIndex(class_name=class_name, attr=attr)
        return DropIndex(name=self._expect_ident())

    # -- retrieval --------------------------------------------------------------------------------

    def _select(self) -> Select:
        self._expect_keyword("SELECT")
        items = self._select_list()
        self._expect_keyword("FROM")
        source = self._expect_ident()
        join: JoinClause | None = None
        if self._match(TokenType.KEYWORD, "JOIN"):
            right_source = self._expect_ident()
            self._expect_keyword("ON")
            on_left = self._column_ref(require_qualifier=True)
            self._expect(TokenType.EQUALS)
            on_right = self._column_ref(require_qualifier=True)
            join = JoinClause(source=right_source, on_left=on_left,
                              on_right=on_right)
        spatial: Box | BoxTemplate | Param | None = None
        temporal: AbsTime | Param | None = None
        filters: list[tuple[str, Any]] = []
        ranges: list[tuple[str, str, Any]] = []
        qualified_filters: list[tuple[str, str, Any]] = []
        qualified_ranges: list[tuple[str, str, str, Any]] = []
        if self._match(TokenType.KEYWORD, "WHERE"):
            while True:
                attr = self._expect_name()
                qualifier: str | None = None
                if self._match(TokenType.DOT):
                    qualifier = attr
                    attr = self._expect_name()
                if qualifier is None \
                        and self._match(TokenType.KEYWORD, "OVERLAPS"):
                    spatial = self._placeholder() or self._box_literal()
                elif (comparison := self._comparison_op()) is not None:
                    value = self._predicate_value(attr)
                    if qualifier is not None:
                        qualified_ranges.append(
                            (qualifier, attr, comparison, value)
                        )
                    else:
                        ranges.append((attr, comparison, value))
                elif self._match(TokenType.EQUALS):
                    value = self._predicate_value(attr)
                    if qualifier is not None:
                        qualified_filters.append((qualifier, attr, value))
                    elif attr == "timestamp" \
                            and not isinstance(value, (int, float)):
                        temporal = (value if isinstance(value, (Param, AbsTime))
                                    else AbsTime.parse(value))
                    else:
                        filters.append((attr, value))
                else:
                    token = self._peek()
                    raise ParseError(
                        f"bad predicate on {attr!r}", token.line, token.column
                    )
                if not self._match(TokenType.KEYWORD, "AND"):
                    break
        group_by: list[ColumnRef] = []
        if self._match(TokenType.KEYWORD, "GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._column_ref())
            while self._match(TokenType.COMMA):
                group_by.append(self._column_ref())
        order_by: list[OrderItem] = []
        if self._match(TokenType.KEYWORD, "ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._order_item())
            while self._match(TokenType.COMMA):
                order_by.append(self._order_item())
        limit: int | None = None
        offset = 0
        if self._match(TokenType.KEYWORD, "LIMIT"):
            limit = self._bounded_count("LIMIT")
            if self._match(TokenType.KEYWORD, "OFFSET"):
                offset = self._bounded_count("OFFSET")
        return Select(source=source, spatial=spatial, temporal=temporal,
                      filters=tuple(filters), ranges=tuple(ranges),
                      items=items, join=join,
                      qualified_filters=tuple(qualified_filters),
                      qualified_ranges=tuple(qualified_ranges),
                      group_by=tuple(group_by), order_by=tuple(order_by),
                      limit=limit, offset=offset)

    def _select_list(self) -> tuple[SelectItem, ...]:
        """The select list: empty, ``*``, or expression items."""
        if self._match(TokenType.STAR):
            return ()
        if not (self._check_name()
                or self._check(TokenType.NUMBER)
                or self._check(TokenType.STRING)):
            return ()
        items = [self._select_item()]
        while self._match(TokenType.COMMA):
            items.append(self._select_item())
        return tuple(items)

    def _select_item(self) -> SelectItem:
        expr = self._select_expr()
        if isinstance(expr, (ColumnRef, OpCall, AggCall)):
            alias = expr.describe()
        else:
            alias = str(expr)
        return SelectItem(expr=expr, alias=alias)

    def _select_expr(self) -> Any:
        """A select-item expression: column ref (optionally qualified),
        aggregate call, registered-operator call, or literal."""
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return (float(token.text) if "." in token.text
                    else int(token.text))
        if token.type is TokenType.STRING:
            self._advance()
            return token.text
        if not self._check_name():
            raise ParseError(
                f"bad select item {token.text or token.type.value!r}",
                token.line, token.column,
            )
        name = self._expect_name()
        if self._match(TokenType.DOT):
            return ColumnRef(attr=self._expect_name(), qualifier=name)
        if not self._check(TokenType.LPAREN):
            return ColumnRef(attr=name)
        self._advance()  # '('
        if name.lower() in AGGREGATE_FUNCS:
            func = name.lower()
            if self._match(TokenType.STAR):
                self._expect(TokenType.RPAREN)
                if func != "count":
                    raise ParseError(
                        f"{func}(*) is not defined — only count(*)",
                        token.line, token.column,
                    )
                return AggCall(func=func, arg=None)
            if func == "count" and self._check(TokenType.RPAREN):
                self._advance()
                return AggCall(func=func, arg=None)
            arg = self._select_expr()
            if isinstance(arg, AggCall):
                raise ParseError(
                    f"aggregate {func} cannot nest another aggregate",
                    token.line, token.column,
                )
            self._expect(TokenType.RPAREN)
            return AggCall(func=func, arg=arg)
        args: list[Any] = []
        while not self._check(TokenType.RPAREN):
            arg = self._select_expr()
            if isinstance(arg, AggCall):
                raise ParseError(
                    f"aggregate call inside operator {name!r} — apply the "
                    "operator inside the aggregate instead",
                    token.line, token.column,
                )
            args.append(arg)
            if not self._match(TokenType.COMMA):
                break
        self._expect(TokenType.RPAREN)
        return OpCall(operator=name, args=tuple(args))

    def _column_ref(self, require_qualifier: bool = False) -> ColumnRef:
        """``attr`` or ``Class.attr``."""
        token = self._peek()
        name = self._expect_name()
        if self._match(TokenType.DOT):
            return ColumnRef(attr=self._expect_name(), qualifier=name)
        if require_qualifier:
            raise ParseError(
                f"join condition needs qualified references "
                f"(Class.attr), found bare {name!r}",
                token.line, token.column,
            )
        return ColumnRef(attr=name)

    def _order_item(self) -> OrderItem:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            if "." in token.text:
                raise ParseError("ORDER BY ordinal must be an integer",
                                 token.line, token.column)
            key: Any = int(token.text)
        else:
            key = self._column_ref()
        descending = False
        if self._match(TokenType.KEYWORD, "DESC"):
            descending = True
        else:
            self._match(TokenType.KEYWORD, "ASC")
        return OrderItem(key=key, descending=descending)

    def _bounded_count(self, clause: str) -> int | Param:
        param = self._placeholder()
        if param is not None:
            # Bindable LIMIT/OFFSET: one cached plan serves every page of
            # a paginated fetch — the count binds at execute time.
            return param
        token = self._expect(TokenType.NUMBER)
        if "." in token.text or int(token.text) < 0:
            raise ParseError(
                f"{clause} takes a non-negative integer",
                token.line, token.column,
            )
        return int(token.text)

    def _comparison_op(self) -> str | None:
        """A ``< <= > >=`` operator at the cursor, if present."""
        for ttype, op in ((TokenType.LE, "<="), (TokenType.GE, ">="),
                          (TokenType.LT, "<"), (TokenType.GT, ">")):
            if self._match(ttype):
                return op
        return None

    def _predicate_value(self, attr: str) -> Any:
        """A predicate's right-hand side: placeholder, string or number."""
        param = self._placeholder()
        if param is not None:
            return param
        token = self._peek()
        if token.type is TokenType.STRING:
            self._advance()
            return token.text
        if token.type is TokenType.NUMBER:
            self._advance()
            return (float(token.text) if "." in token.text
                    else int(token.text))
        raise ParseError(
            f"bad literal in predicate on {attr!r}",
            token.line, token.column,
        )

    def _derive(self) -> Derive:
        self._expect_keyword("DERIVE")
        class_name = self._expect_ident()
        spatial: Box | BoxTemplate | Param | None = None
        temporal: AbsTime | Param | None = None
        while True:
            if self._match(TokenType.KEYWORD, "AT"):
                param = self._placeholder()
                if param is not None:
                    temporal = param
                else:
                    temporal = AbsTime.parse(
                        self._expect(TokenType.STRING).text
                    )
            elif self._match(TokenType.KEYWORD, "IN"):
                spatial = self._placeholder() or self._box_literal()
            else:
                break
        return Derive(class_name=class_name, spatial=spatial,
                      temporal=temporal)

    def _box_literal(self) -> Box | BoxTemplate:
        """A box literal whose coordinates may be placeholders."""
        self._expect(TokenType.LPAREN)
        coords: list[Any] = []
        for position in range(4):
            if position:
                self._expect(TokenType.COMMA)
            param = self._placeholder()
            if param is not None:
                coords.append(param)
            else:
                coords.append(float(self._expect(TokenType.NUMBER).text))
        self._expect(TokenType.RPAREN)
        if any(isinstance(c, Param) for c in coords):
            return BoxTemplate(coords=tuple(coords))
        return Box(*coords)

    # -- RUN / SHOW --------------------------------------------------------------------------------

    def _run(self) -> RunProcess:
        self._expect_keyword("RUN")
        process = self._expect_ident()
        bindings: list[tuple[str, tuple[int, ...]]] = []
        if self._match(TokenType.KEYWORD, "WITH"):
            while True:
                arg = self._expect_ident()
                self._expect(TokenType.EQUALS)
                self._expect(TokenType.LPAREN)
                oids = [int(self._expect(TokenType.NUMBER).text)]
                while self._match(TokenType.COMMA):
                    oids.append(int(self._expect(TokenType.NUMBER).text))
                self._expect(TokenType.RPAREN)
                bindings.append((arg, tuple(oids)))
                if not self._match(TokenType.COMMA):
                    break
        return RunProcess(process=process, bindings=tuple(bindings))

    def _show(self) -> Show:
        self._expect_keyword("SHOW")
        token = self._peek()
        for what in ("CLASSES", "PROCESSES", "CONCEPTS", "TASKS",
                     "EXPERIMENTS", "OPERATORS", "TYPES", "INDEXES"):
            if self._match(TokenType.KEYWORD, what):
                return Show(what=what.lower())
        raise ParseError(
            "SHOW expects CLASSES/PROCESSES/CONCEPTS/TASKS/EXPERIMENTS/"
            f"OPERATORS/TYPES/INDEXES, found {token.text!r}",
            token.line, token.column,
        )
