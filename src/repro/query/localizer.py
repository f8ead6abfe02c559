"""Localization: carve an expanded global query into per-site fragments.

Input: a query whose FROM items reference export relations as
``site.export`` (the output of :meth:`repro.schema.Federation.expand`).

Output: a :class:`GlobalPlan` — a list of :class:`Fetch` fragments (one
subquery shipped to one gateway) plus the residual query, rewritten over
each fetch's ``temp_name``, that the federation site evaluates on the
fetched fragments (read in place, by that name).

Localization optionally performs the two classic reductions the full-fledged
optimizer relies on:

- **projection pushdown**: ship only the columns the residual query needs
- **selection pushdown**: ship single-relation WHERE conjuncts with the
  fragment query so filtering happens at the data's site

(The *simple* strategy — the paper's initially implemented optimizer — does
neither: it ships every referenced export relation whole.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import FederationError
from repro.gateway import Gateway
from repro.sql import ast, to_sql


@dataclass
class SemiJoinSpec:
    """Reduce this fetch by the join keys of an earlier fetch."""

    source_index: int  #: index into GlobalPlan.fetches
    source_column: str  #: column of the source fetch's output
    target_column: str  #: export column of this fetch to restrict


@dataclass
class Fetch:
    """One subquery shipped to one gateway."""

    index: int
    site: str
    export: str
    binding: str
    temp_name: str
    columns: list[str]
    predicate: ast.Expression | None = None
    semijoin: SemiJoinSpec | None = None
    #: True when this export sits on the null-supplied side of an outer
    #: join: no selection may be pushed into (or semijoined onto) it.
    protected: bool = False
    #: Whole-block shipping: a complete SELECT (aggregation, grouping,
    #: DISTINCT, LIMIT) evaluated at the component site.  When set,
    #: ``columns`` are the block's output names and ``predicate``/
    #: ``semijoin`` are unused.
    whole_query: ast.Select | None = None
    #: Optimizer estimates for this fetch (rows / shipped bytes / virtual
    #: seconds), filled by the planning strategy and compared against the
    #: measured actuals in ``GlobalResult.explain_analyze()``.
    est_rows: float | None = None
    est_bytes: float | None = None
    est_cost_s: float | None = None
    #: True when mid-query re-planning changed this fetch after execution
    #: started (its estimates were re-derived from measured actuals).
    replanned: bool = False
    #: Memo of :meth:`shipped_sql`.
    _sql: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def shipped_sql(self) -> str:
        """Text of the SELECT shipped for a fetch without a semijoin.

        Printed on first use and memoised: plans are shared read-only
        through the plan cache, so the text is printed once per cached
        plan, not once per execution.  A semijoin fetch binds a fresh key
        list on every execution and has no fixed text.
        """
        if self._sql is None:
            self._sql = to_sql(self.shipped_query())
        return self._sql

    def shipped_query(self, in_list: list[object] | None = None) -> ast.Select:
        """The SELECT sent to the gateway (export-relation namespace)."""
        if self.whole_query is not None:
            return self.whole_query
        where = self.predicate
        if self.semijoin is not None:
            if in_list is None:
                raise FederationError("semijoin fetch requires key values")
            restriction: ast.Expression
            if in_list:
                restriction = ast.InList(
                    ast.ColumnRef(self.semijoin.target_column),
                    [ast.Literal(v) for v in in_list],
                )
            else:  # no keys: the reduced fragment is empty
                restriction = ast.BinaryOp("=", ast.Literal(1), ast.Literal(0))
            where = ast.conjoin(
                [p for p in (where, restriction) if p is not None]
            )
        return ast.Select(
            items=[
                ast.SelectItem(ast.ColumnRef(column), column)
                for column in self.columns
            ],
            from_clause=[ast.TableName(self.export)],
            where=where,
        )


@dataclass
class JoinEdge:
    """An equi-join between two export fetches in the same query block."""

    left_fetch: int
    left_column: str
    right_fetch: int
    right_column: str


@dataclass
class GlobalPlan:
    """A localized global query ready for execution."""

    query: ast.Query  #: residual query over the fetches' temp names
    fetches: list[Fetch] = field(default_factory=list)
    join_edges: list[JoinEdge] = field(default_factory=list)
    strategy: str = "simple"
    estimated_cost_s: float | None = None
    notes: list[str] = field(default_factory=list)

    def fetch_summary(self, fetch: Fetch) -> str:
        """One-line description of one fetch (shared by EXPLAIN variants)."""
        from repro.sql.printer import SQLPrinter

        printer = SQLPrinter()
        if fetch.whole_query is not None:
            return (
                f"fetch #{fetch.index} {fetch.site}.{fetch.export} "
                f"AS {fetch.binding}: SHIPPED BLOCK "
                f"{printer.print_select(fetch.whole_query)}"
            )
        semijoin = ""
        if fetch.semijoin is not None:
            semijoin = (
                f" SEMIJOIN keys from #{fetch.semijoin.source_index}"
                f".{fetch.semijoin.source_column}"
                f" -> {fetch.semijoin.target_column}"
            )
        predicate = ""
        if fetch.predicate is not None:
            predicate = (
                f" WHERE {printer.print_expression(fetch.predicate)}"
            )
        return (
            f"fetch #{fetch.index} {fetch.site}.{fetch.export} "
            f"AS {fetch.binding}: [{', '.join(fetch.columns)}]"
            f"{predicate}{semijoin}"
        )

    def describe(self) -> str:
        """Readable plan summary (EXPLAIN output for global queries)."""
        from repro.sql.printer import SQLPrinter

        printer = SQLPrinter()
        lines = [f"GlobalPlan[{self.strategy}]"]
        if self.estimated_cost_s is not None:
            lines.append(f"  estimated cost: {self.estimated_cost_s * 1000:.2f}ms")
        for fetch in self.fetches:
            lines.append("  " + self.fetch_summary(fetch))
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append("  residual: " + printer.print_query(self.query))
        return "\n".join(lines)


class Localizer:
    """Builds GlobalPlans from expanded queries."""

    def __init__(self, gateways: dict[str, Gateway]):
        self.gateways = gateways
        self._counter = itertools.count(1)

    def localize(self, query: ast.Query, pushdown: bool) -> GlobalPlan:
        plan = GlobalPlan(query=query, strategy="cost" if pushdown else "simple")
        plan.query, _ = self._localize_query(query, plan, pushdown)
        return plan

    # ------------------------------------------------------------------
    # Recursive rewriting
    # ------------------------------------------------------------------
    #
    # _localize_query returns (rewritten_query, col_info) where col_info is
    # a _ColInfo tracing each output column back to the export fetches that
    # produce it verbatim — the information the semijoin pass needs to see
    # join edges through view projections and unions.

    def _localize_query(
        self, query: ast.Query, plan: GlobalPlan, pushdown: bool
    ) -> tuple[ast.Query, "_ColInfo"]:
        if isinstance(query, ast.SetOperation):
            left, left_info = self._localize_query(query.left, plan, pushdown)
            right, right_info = self._localize_query(
                query.right, plan, pushdown
            )
            rewritten = ast.SetOperation(
                query.kind,
                left,
                right,
                list(query.order_by),
                query.limit,
                query.offset,
            )
            return rewritten, _ColInfo.combine(left_info, right_info)
        return self._localize_select(query, plan, pushdown)

    def _localize_select(
        self, select: ast.Select, plan: GlobalPlan, pushdown: bool
    ) -> tuple[ast.Select, "_ColInfo"]:
        # Whole-block shipping: a cardinality-reducing block that reads
        # exactly one export relation executes entirely at its site.
        if pushdown:
            shipped = self._try_whole_block(select, plan)
            if shipped is not None:
                return shipped

        # Recurse into expression-level subqueries first.
        select = ast.Select(
            items=[
                ast.SelectItem(
                    self._localize_expr(i.expression, plan, pushdown), i.alias
                )
                for i in select.items
            ],
            from_clause=list(select.from_clause),
            where=self._localize_expr(select.where, plan, pushdown)
            if select.where is not None
            else None,
            group_by=[
                self._localize_expr(g, plan, pushdown) for g in select.group_by
            ],
            having=self._localize_expr(select.having, plan, pushdown)
            if select.having is not None
            else None,
            order_by=[
                ast.OrderItem(
                    self._localize_expr(o.expression, plan, pushdown),
                    o.ascending,
                )
                for o in select.order_by
            ],
            limit=select.limit,
            offset=select.offset,
            distinct=select.distinct,
        )

        # Gather this block's bindings; recurse into derived tables now so
        # their column provenance is available for join-edge analysis.
        binding_columns: dict[str, list[str]] = {}
        export_refs: list[tuple[ast.TableName, str]] = []  # (node, binding)
        derived_info: dict[str, _ColInfo] = {}
        rewritten_subqueries: dict[int, ast.SubqueryRef] = {}

        def scan_ref(ref: ast.TableRef) -> None:
            if isinstance(ref, ast.TableName):
                binding = ref.binding
                if "." in ref.name:
                    site, export = self._split_export(ref.name)
                    schema = self.gateways[site].export_relation_schema(export)
                    binding = ref.alias or export
                    binding_columns[binding.lower()] = schema.column_names
                    export_refs.append((ref, binding))
                else:
                    raise FederationError(
                        f"unknown relation {ref.name!r} in global query "
                        "(not an integrated relation, not site-qualified)"
                    )
            elif isinstance(ref, ast.SubqueryRef):
                body, info = self._localize_query(ref.query, plan, pushdown)
                rewritten_subqueries[id(ref)] = ast.SubqueryRef(body, ref.alias)
                derived_info[ref.alias.lower()] = info
                binding_columns[ref.alias.lower()] = info.names or (
                    _query_output_names(ref.query)
                )
            elif isinstance(ref, ast.Join):
                scan_ref(ref.left)
                scan_ref(ref.right)

        for ref in select.from_clause:
            scan_ref(ref)

        protected = _protected_bindings(select.from_clause)

        # Selection pushdown: per-binding single-relation conjuncts.
        # Bindings on the null-supplied side of an outer join are excluded —
        # filtering them before the join would change the padding.
        pushed: dict[str, list[ast.Expression]] = {}
        residual_where = select.where
        if pushdown and export_refs and select.where is not None:
            kept: list[ast.Expression] = []
            export_bindings = {binding.lower() for _, binding in export_refs}
            for conjunct in ast.split_conjuncts(select.where):
                owner = _single_binding_of(conjunct, binding_columns)
                if (
                    owner is not None
                    and owner in export_bindings
                    and owner not in protected
                ):
                    pushed.setdefault(owner, []).append(conjunct)
                else:
                    kept.append(conjunct)
            residual_where = ast.conjoin(kept)

        # Projection pushdown: which columns does the residual need?
        # (Analyse with the residual WHERE so pushed-predicate columns do
        # not force their way into the shipped projection.)
        select.where = residual_where
        needed = (
            self._needed_columns(select, binding_columns)
            if pushdown
            else None
        )

        # Create fetches and rewrite the FROM items.
        replacements: dict[int, ast.TableRef] = {}
        fetch_of_binding: dict[str, int] = {}
        for node, binding in export_refs:
            site, export = self._split_export(node.name)
            all_columns = binding_columns[binding.lower()]
            if needed is None:
                columns = list(all_columns)
            else:
                wanted = needed.get(binding.lower())
                if wanted is None:
                    columns = list(all_columns)
                else:
                    columns = [c for c in all_columns if c.lower() in wanted]
                    if not columns:
                        # At least ship something joinable.
                        columns = all_columns[:1]
            predicate = None
            if binding.lower() in pushed:
                conjuncts = [
                    _strip_binding(c, binding) for c in pushed[binding.lower()]
                ]
                # Pushed predicates may reference columns not in the
                # residual's needs; they are evaluated at the site, so the
                # shipped column list does not have to include them.
                predicate = ast.conjoin(conjuncts)
            fetch = Fetch(
                index=len(plan.fetches),
                site=site,
                export=export,
                binding=binding,
                temp_name=f"__f{next(self._counter)}_{export}",
                columns=columns,
                predicate=predicate,
                protected=binding.lower() in protected,
            )
            plan.fetches.append(fetch)
            fetch_of_binding[binding.lower()] = fetch.index
            replacements[id(node)] = ast.TableName(fetch.temp_name, binding)

        # Record join edges for the semijoin pass (resolving columns
        # through derived tables down to the producing fetches).
        self._collect_join_edges(
            select, residual_where, plan, fetch_of_binding, derived_info
        )

        def rewrite_ref(ref: ast.TableRef) -> ast.TableRef:
            if isinstance(ref, ast.TableName):
                return replacements.get(id(ref), ref)
            if isinstance(ref, ast.SubqueryRef):
                return rewritten_subqueries[id(ref)]
            if isinstance(ref, ast.Join):
                return ast.Join(
                    rewrite_ref(ref.left),
                    rewrite_ref(ref.right),
                    ref.join_type,
                    ref.condition,
                    list(ref.using),
                )
            return ref

        select.from_clause = [rewrite_ref(r) for r in select.from_clause]
        select.where = residual_where

        # Provenance of this block's own outputs.
        info = self._block_col_info(
            select, fetch_of_binding, derived_info, binding_columns
        )
        return select, info

    def _localize_expr(
        self, expr: ast.Expression, plan: GlobalPlan, pushdown: bool
    ) -> ast.Expression:
        def replace(node: ast.Expression) -> ast.Expression:
            if isinstance(node, ast.InSubquery):
                return ast.InSubquery(
                    node.operand,
                    self._localize_query(node.query, plan, pushdown)[0],
                    node.negated,
                )
            if isinstance(node, ast.Exists):
                return ast.Exists(
                    self._localize_query(node.query, plan, pushdown)[0],
                    node.negated,
                )
            if isinstance(node, ast.ScalarSubquery):
                return ast.ScalarSubquery(
                    self._localize_query(node.query, plan, pushdown)[0]
                )
            return node

        return ast.transform_expression(expr, replace)

    # ------------------------------------------------------------------
    # Whole-block shipping
    # ------------------------------------------------------------------

    def _try_whole_block(
        self, select: ast.Select, plan: GlobalPlan
    ) -> tuple[ast.Select, "_ColInfo"] | None:
        """Ship an entire block to its site when it reduces cardinality.

        Requirements: single export-relation FROM, every column resolves to
        that export, only builtin functions, no subqueries/parameters, and
        the block actually reduces data (GROUP BY / aggregates / DISTINCT /
        LIMIT) — otherwise the ordinary column-level pushdown is as good and
        keeps semijoin opportunities alive.
        """
        reduces = bool(select.group_by) or select.distinct or (
            select.limit is not None
        ) or any(
            ast.contains_aggregate(item.expression) for item in select.items
        )
        if not reduces:
            return None
        if len(select.from_clause) != 1:
            return None
        ref = select.from_clause[0]
        if not isinstance(ref, ast.TableName) or "." not in ref.name:
            return None
        try:
            site, export = self._split_export(ref.name)
        except FederationError:
            return None
        binding = ref.alias or export
        export_columns = {
            c.lower()
            for c in self.gateways[site].export_relation_schema(
                export
            ).column_names
        }

        output_names: list[str] = []
        seen_names: set[str] = set()
        for index, item in enumerate(select.items):
            if isinstance(item.expression, ast.Star):
                return None
            name = item.output_name
            if name == "?column?" or name.lower() in seen_names:
                name = f"col{index}"
            seen_names.add(name.lower())
            output_names.append(name)

        if not _block_shippable(select, binding, export_columns):
            return None

        local_block = _strip_block_qualifiers(select, binding, output_names)
        local_block.from_clause = [ast.TableName(export)]

        fetch = Fetch(
            index=len(plan.fetches),
            site=site,
            export=export,
            binding=binding,
            temp_name=f"__f{next(self._counter)}_{export}",
            columns=list(output_names),
            whole_query=local_block,
        )
        plan.fetches.append(fetch)
        replacement = ast.Select(
            items=[
                ast.SelectItem(ast.ColumnRef(name), name)
                for name in output_names
            ],
            from_clause=[ast.TableName(fetch.temp_name, binding)],
        )
        # Outputs are post-aggregation: no verbatim provenance for semijoins.
        return replacement, _ColInfo(output_names, [[] for _ in output_names])

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------

    def _split_export(self, dotted: str) -> tuple[str, str]:
        site, _, export = dotted.partition(".")
        if site not in self.gateways:
            raise FederationError(f"unknown site {site!r} in {dotted!r}")
        if not self.gateways[site].exports.has(export):
            raise FederationError(
                f"site {site!r} exports no relation {export!r}"
            )
        return site, export

    def _needed_columns(
        self, select: ast.Select, binding_columns: dict[str, list[str]]
    ) -> dict[str, set[str]] | None:
        """binding → needed column names; None means 'cannot prune'."""
        needed: dict[str, set[str]] = {
            binding: set() for binding in binding_columns
        }
        blocked = False

        def note_ref(node: ast.Expression) -> None:
            nonlocal blocked
            if isinstance(node, ast.Star):
                if node.table is None:
                    blocked = True
                else:
                    key = node.table.lower()
                    if key in needed:
                        needed[key].update(
                            c.lower() for c in binding_columns[key]
                        )
                return
            if isinstance(node, ast.ColumnRef):
                if node.table is not None:
                    key = node.table.lower()
                    if key in needed:
                        needed[key].add(node.name.lower())
                else:
                    owners = [
                        binding
                        for binding, columns in binding_columns.items()
                        if node.name.lower() in (c.lower() for c in columns)
                    ]
                    if len(owners) == 1:
                        needed[owners[0]].add(node.name.lower())
                    elif owners:
                        for owner in owners:
                            needed[owner].add(node.name.lower())
                    # else: outer/correlated reference; nothing local needed

        def walk_expr(expr: ast.Expression) -> None:
            for node in ast.walk_expressions(expr):
                note_ref(node)
                if isinstance(node, (ast.InSubquery, ast.ScalarSubquery)):
                    walk_query(node.query)
                elif isinstance(node, ast.Exists):
                    walk_query(node.query)

        def walk_query(query: ast.Query) -> None:
            if isinstance(query, ast.SetOperation):
                walk_query(query.left)
                walk_query(query.right)
                return
            for item in query.items:
                walk_expr(item.expression)
            if query.where is not None:
                walk_expr(query.where)
            for group in query.group_by:
                walk_expr(group)
            if query.having is not None:
                walk_expr(query.having)
            for order in query.order_by:
                walk_expr(order.expression)
            for ref in query.from_clause:
                walk_ref(ref)

        def walk_ref(ref: ast.TableRef) -> None:
            if isinstance(ref, ast.SubqueryRef):
                walk_query(ref.query)
            elif isinstance(ref, ast.Join):
                walk_ref(ref.left)
                walk_ref(ref.right)
                if ref.condition is not None:
                    walk_expr(ref.condition)

        walk_query(select)
        if blocked:
            return None
        return needed

    def _collect_join_edges(
        self,
        select: ast.Select,
        residual_where: ast.Expression | None,
        plan: GlobalPlan,
        fetch_of_binding: dict[str, int],
        derived_info: dict[str, "_ColInfo"],
    ) -> None:
        """Record equi-join edges between export fetches of this block.

        Column references are resolved through derived tables (views, union
        branches) down to the fetches that produce them verbatim, so a join
        between two integrated relations still yields semijoin candidates.
        """
        conjuncts: list[ast.Expression] = list(
            ast.split_conjuncts(residual_where)
        )

        def collect_on(ref: ast.TableRef) -> None:
            if isinstance(ref, ast.Join):
                collect_on(ref.left)
                collect_on(ref.right)
                if ref.condition is not None and ref.join_type in (
                    ast.JoinType.INNER,
                ):
                    conjuncts.extend(ast.split_conjuncts(ref.condition))

        for ref in select.from_clause:
            collect_on(ref)

        def resolve(column: ast.ColumnRef) -> list[tuple[int, str]]:
            if column.table is None:
                return []
            key = column.table.lower()
            if key in fetch_of_binding:
                return [(fetch_of_binding[key], column.name)]
            info = derived_info.get(key)
            if info is not None:
                return info.resolve(column.name)
            return []

        for conjunct in conjuncts:
            if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
                continue
            left, right = conjunct.left, conjunct.right
            if not (
                isinstance(left, ast.ColumnRef)
                and isinstance(right, ast.ColumnRef)
            ):
                continue
            for left_fetch, left_column in resolve(left):
                for right_fetch, right_column in resolve(right):
                    if left_fetch == right_fetch:
                        continue
                    plan.join_edges.append(
                        JoinEdge(
                            left_fetch, left_column, right_fetch, right_column
                        )
                    )

    def _block_col_info(
        self,
        select: ast.Select,
        fetch_of_binding: dict[str, int],
        derived_info: dict[str, "_ColInfo"],
        binding_columns: dict[str, list[str]],
    ) -> "_ColInfo":
        """Provenance of this block's output columns.

        Only verbatim column chains count: an output produced by an
        expression (integration function, arithmetic, COALESCE over an
        outer join) is deliberately unresolvable — semijoin reduction on a
        transformed value would be unsound.
        """
        names: list[str] = []
        resolutions: list[list[tuple[int, str]]] = []
        for item in select.items:
            if isinstance(item.expression, ast.Star):
                return _ColInfo([], [])
            names.append(item.output_name)
            expr = item.expression
            resolved: list[tuple[int, str]] = []
            if isinstance(expr, ast.ColumnRef):
                key: str | None = None
                if expr.table is not None:
                    key = expr.table.lower()
                else:
                    owners = [
                        binding
                        for binding, columns in binding_columns.items()
                        if expr.name.lower() in (c.lower() for c in columns)
                    ]
                    if len(owners) == 1:
                        key = owners[0]
                if key is not None:
                    if key in fetch_of_binding:
                        resolved = [(fetch_of_binding[key], expr.name)]
                    elif key in derived_info:
                        resolved = derived_info[key].resolve(expr.name)
            resolutions.append(resolved)
        return _ColInfo(names, resolutions)


# ---------------------------------------------------------------------------
# Column provenance
# ---------------------------------------------------------------------------


class _ColInfo:
    """Traces a query's output columns to the fetches producing them."""

    def __init__(
        self, names: list[str], resolutions: list[list[tuple[int, str]]]
    ):
        self.names = names
        self.resolutions = resolutions

    def resolve(self, column: str) -> list[tuple[int, str]]:
        for name, resolution in zip(self.names, self.resolutions):
            if name.lower() == column.lower():
                return resolution
        return []

    @staticmethod
    def combine(left: "_ColInfo", right: "_ColInfo") -> "_ColInfo":
        """Positional union for set operations (names from the left side)."""
        if not left.names or not right.names:
            return _ColInfo([], [])
        if len(left.names) != len(right.names):
            return _ColInfo([], [])
        resolutions = [
            left_res + right_res
            for left_res, right_res in zip(left.resolutions, right.resolutions)
        ]
        return _ColInfo(list(left.names), resolutions)


# ---------------------------------------------------------------------------
# Module helpers
# ---------------------------------------------------------------------------


def _query_output_names(query: ast.Query) -> list[str]:
    while isinstance(query, ast.SetOperation):
        query = query.left
    names = []
    for item in query.items:
        if isinstance(item.expression, ast.Star):
            return []  # unknown statically; pruning will be conservative
        names.append(item.output_name)
    return names


def _block_shippable(
    select: ast.Select, binding: str, export_columns: set[str]
) -> bool:
    """Can every expression of this block run at the export's site?"""
    from repro.engine.expressions import BUILTIN_FUNCTIONS

    def expr_ok(expr: ast.Expression) -> bool:
        for node in ast.walk_expressions(expr):
            if isinstance(
                node,
                (ast.InSubquery, ast.Exists, ast.ScalarSubquery, ast.Parameter),
            ):
                return False
            if isinstance(node, ast.FunctionCall):
                name = node.name.upper()
                if not node.is_aggregate and name not in BUILTIN_FUNCTIONS:
                    return False
            if isinstance(node, ast.Star):
                continue  # COUNT(*) — fine
            if isinstance(node, ast.ColumnRef):
                if node.table is not None:
                    if node.table.lower() != binding.lower():
                        return False
                if node.name.lower() not in export_columns:
                    if node.table is None and node.name.upper() in (
                        "ROWNUM", "SYSDATE", "CURRENT_DATE",
                    ):
                        return False  # dialect-sensitive; keep at federation
                    return False
        return True

    for item in select.items:
        if not expr_ok(item.expression):
            return False
    if select.where is not None and not expr_ok(select.where):
        return False
    for group in select.group_by:
        if not expr_ok(group):
            return False
    if select.having is not None and not expr_ok(select.having):
        return False
    for order in select.order_by:
        if isinstance(order.expression, ast.Literal):
            continue  # positional
        if not expr_ok(order.expression):
            return False
    return True


def _strip_block_qualifiers(
    select: ast.Select, binding: str, output_names: list[str]
) -> ast.Select:
    """Copy the block with binding qualifiers removed and names finalised."""

    def strip(expr: ast.Expression) -> ast.Expression:
        def replace(node: ast.Expression) -> ast.Expression:
            if isinstance(node, ast.ColumnRef) and node.table is not None:
                if node.table.lower() == binding.lower():
                    return ast.ColumnRef(node.name)
            return node

        return ast.transform_expression(expr, replace)

    return ast.Select(
        items=[
            ast.SelectItem(strip(item.expression), name)
            for item, name in zip(select.items, output_names)
        ],
        from_clause=list(select.from_clause),
        where=strip(select.where) if select.where is not None else None,
        group_by=[strip(g) for g in select.group_by],
        having=strip(select.having) if select.having is not None else None,
        order_by=[
            ast.OrderItem(
                order.expression
                if isinstance(order.expression, ast.Literal)
                else strip(order.expression),
                order.ascending,
            )
            for order in select.order_by
        ],
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )


def _protected_bindings(from_clause: list[ast.TableRef]) -> set[str]:
    """Bindings on the null-supplied side of some outer join in this block."""
    protected: set[str] = set()

    def all_bindings(ref: ast.TableRef) -> set[str]:
        if isinstance(ref, ast.TableName):
            return {ref.binding.lower()}
        if isinstance(ref, ast.SubqueryRef):
            return {ref.alias.lower()}
        if isinstance(ref, ast.Join):
            return all_bindings(ref.left) | all_bindings(ref.right)
        return set()

    def scan(ref: ast.TableRef) -> None:
        if isinstance(ref, ast.Join):
            if ref.join_type is ast.JoinType.LEFT:
                protected.update(all_bindings(ref.right))
            elif ref.join_type is ast.JoinType.RIGHT:
                protected.update(all_bindings(ref.left))
            elif ref.join_type is ast.JoinType.FULL:
                protected.update(all_bindings(ref.left))
                protected.update(all_bindings(ref.right))
            scan(ref.left)
            scan(ref.right)

    for ref in from_clause:
        scan(ref)
    return protected


def _single_binding_of(
    conjunct: ast.Expression, binding_columns: dict[str, list[str]]
) -> str | None:
    """The unique local binding a conjunct references, or None."""
    owner: str | None = None
    for node in ast.walk_expressions(conjunct):
        if isinstance(
            node,
            (ast.InSubquery, ast.Exists, ast.ScalarSubquery, ast.Parameter),
        ):
            return None
        if isinstance(node, ast.FunctionCall):
            if node.is_aggregate:
                return None
            # Only ship functions every component DBMS understands;
            # user-defined integration functions execute at the federation.
            from repro.engine.expressions import BUILTIN_FUNCTIONS

            if node.name.upper() not in BUILTIN_FUNCTIONS:
                return None
        if isinstance(node, ast.Star):
            return None
        if isinstance(node, ast.ColumnRef):
            if node.table is not None:
                key = node.table.lower()
                if key not in binding_columns:
                    return None  # outer binding
            else:
                owners = [
                    binding
                    for binding, columns in binding_columns.items()
                    if node.name.lower() in (c.lower() for c in columns)
                ]
                if len(owners) != 1:
                    return None
                key = owners[0]
            if owner is None:
                owner = key
            elif owner != key:
                return None
    return owner


def _strip_binding(expr: ast.Expression, binding: str) -> ast.Expression:
    """Unqualify column refs so the conjunct runs against the bare export."""

    def replace(node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.ColumnRef) and node.table is not None:
            if node.table.lower() == binding.lower():
                return ast.ColumnRef(node.name)
        return node

    return ast.transform_expression(expr, replace)
