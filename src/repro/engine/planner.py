"""Rule-based planner for one component database.

Translates a parsed query into a tree of physical operators from
:mod:`repro.engine.operators`.  The planner applies the classic heuristics a
1990s local optimizer would:

- selection pushdown to the lowest operator that can evaluate it, including
  through projection-only derived tables (the gateway's export views)
- index selection for constant equality/range predicates
- hash joins for equi-join conjuncts, greedy join ordering for implicit
  (comma-separated) joins, nested loops as the fallback
- aggregate rewrite: post-aggregation expressions are rewritten to reference
  the aggregate operator's output columns

Correlated subqueries are supported by planning with a parent
:class:`~repro.engine.expressions.Scope`; the executor supplies outer rows at
runtime.
"""

from __future__ import annotations

import dataclasses
import datetime
from collections.abc import Mapping
from dataclasses import dataclass
from decimal import Decimal

from repro.errors import CatalogError, ExecutionError
from repro.engine import operators as ops
from repro.engine.expressions import OutputColumn, Scope
from repro.sql import ast
from repro.storage.catalog import Catalog
from repro.storage.fragment import Fragment
from repro.storage.index import OrderedIndex
from repro.storage.types import DataType, TypeKind


class _RecordingScope(Scope):
    """Wraps an outer scope and records whether it was ever consulted.

    Used to detect correlated subqueries: if planning (or evaluation setup)
    resolves any column through the parent, the subquery result cannot be
    cached across outer rows.
    """

    def __init__(self, inner: Scope):
        super().__init__([], parent=inner)
        self.consulted = False

    def resolve(self, table: str | None, name: str) -> tuple[int, int]:
        depth, position = self.parent.resolve(table, name)  # may raise
        self.consulted = True
        # Collapse our empty frame: we occupy depth 0 with no columns, so a
        # parent hit at depth d must surface as depth d (not d+1) relative to
        # the subquery scope that has us as parent... the caller adds 1.
        return depth, position


@dataclass
class _Relation:
    """A planned FROM-clause item and the bindings it provides."""

    op: ops.Operator
    bindings: frozenset[str]


class LocalPlanner:
    """Plans queries against one :class:`~repro.storage.catalog.Catalog`.

    ``fragments`` (lower-cased name → :class:`Fragment`) are relations read
    in place by :class:`~repro.engine.operators.FragmentScan`; a name found
    there shadows the catalog.
    """

    def __init__(
        self, catalog: Catalog, fragments: Mapping[str, Fragment] | None = None
    ):
        self.catalog = catalog
        self.fragments = fragments or {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def plan_query(
        self, query: ast.Query, outer: Scope | None = None
    ) -> ops.Operator:
        if isinstance(query, ast.SetOperation):
            return self._plan_set_operation(query, outer)
        return self._plan_select(query, outer)

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------

    def _plan_set_operation(
        self, query: ast.SetOperation, outer: Scope | None
    ) -> ops.Operator:
        left = self.plan_query(query.left, outer)
        right = self.plan_query(query.right, outer)
        plan: ops.Operator = ops.SetOp(query.kind, left, right)
        if query.order_by:
            scope = Scope(plan.schema, outer)
            keys, ascending = self._resolve_order_keys(
                query.order_by, plan.schema, None
            )
            plan = ops.Sort(plan, keys, ascending, scope)
        if query.limit is not None or query.offset is not None:
            plan = ops.Limit(plan, query.limit, query.offset)
        return plan

    # ------------------------------------------------------------------
    # SELECT blocks
    # ------------------------------------------------------------------

    def _plan_select(self, select: ast.Select, outer: Scope | None) -> ops.Operator:
        # ------------------------------------------------------ FROM + WHERE
        conjuncts = ast.split_conjuncts(select.where)
        if select.from_clause:
            input_op, remaining = self._plan_from(select.from_clause, conjuncts, outer)
        else:
            # SELECT without FROM: single empty row.
            input_op = ops.ValuesScan([], [()])
            remaining = conjuncts
        input_scope = Scope(input_op.schema, outer)
        if remaining:
            input_op = ops.Filter(input_op, ast.conjoin(remaining), input_scope)

        # ------------------------------------------------------ projections
        items = self._expand_stars(select.items, input_op.schema)
        output_names = [item.output_name for item in items]

        needs_aggregate = bool(select.group_by) or any(
            ast.contains_aggregate(item.expression) for item in items
        ) or (select.having is not None and ast.contains_aggregate(select.having))

        order_items = self._normalise_order_items(select.order_by, items)

        if needs_aggregate:
            plan, scope, items, having, order_items = self._plan_aggregate(
                input_op, input_scope, select, items, order_items, outer
            )
            if having is not None:
                plan = ops.Filter(plan, having, scope)
        else:
            if select.having is not None:
                raise ExecutionError("HAVING requires GROUP BY or aggregates")
            plan, scope = input_op, input_scope

        # ------------------------------------------------------ ORDER/DISTINCT
        if select.distinct:
            plan = ops.Project(
                plan, [item.expression for item in items], output_names, scope
            )
            plan = ops.Distinct(plan)
            if order_items:
                # With DISTINCT the sort keys must be output columns; map
                # expressions matching a projection back to its output name.
                keys: list[ast.Expression] = []
                ascending: list[bool] = []
                for order in order_items:
                    expression = order.expression
                    for position, item in enumerate(items):
                        if expression == item.expression:
                            expression = ast.ColumnRef(output_names[position])
                            break
                    keys.append(expression)
                    ascending.append(order.ascending)
                out_scope = Scope(plan.schema, outer)
                plan = ops.Sort(plan, keys, ascending, out_scope)
        elif order_items:
            # Extended projection: visible outputs plus hidden sort keys.
            # Internal names are positional so duplicate/unnamed output
            # columns (e.g. two 'ename's in a self join) stay unambiguous.
            sort_exprs = [item.expression for item in order_items]
            extended_exprs = [item.expression for item in items] + sort_exprs
            visible_names = [f"__o{i}" for i in range(len(items))]
            hidden_names = [f"__sort{i}" for i in range(len(sort_exprs))]
            plan = ops.Project(
                plan, extended_exprs, visible_names + hidden_names, scope
            )
            extended_scope = Scope(plan.schema, outer)
            keys = [
                ast.ColumnRef(name) for name in hidden_names
            ]
            ascending = [item.ascending for item in order_items]
            plan = ops.Sort(plan, keys, ascending, extended_scope)
            visible = [ast.ColumnRef(name) for name in visible_names]
            plan = ops.Project(plan, visible, output_names, extended_scope)
        else:
            plan = ops.Project(
                plan, [item.expression for item in items], output_names, scope
            )

        if select.limit is not None or select.offset is not None:
            plan = ops.Limit(plan, select.limit, select.offset)
        return plan

    # ------------------------------------------------------------------
    # FROM planning
    # ------------------------------------------------------------------

    def _plan_from(
        self,
        from_clause: list[ast.TableRef],
        conjuncts: list[ast.Expression],
        outer: Scope | None,
    ) -> tuple[ops.Operator, list[ast.Expression]]:
        """Plan the FROM clause, consuming pushable conjuncts.

        Returns (operator, leftover conjuncts to apply above)."""
        available = list(conjuncts)
        relations: list[_Relation] = []
        for ref in from_clause:
            relation = self._plan_table_ref(ref, available, outer)
            relations.append(relation)

        if len(relations) == 1:
            combined = relations[0]
        else:
            combined = self._order_joins(relations, available, outer)

        # Apply any remaining conjuncts that are local to the combined input.
        local, leftover = self._split_local(
            available, Scope(combined.op.schema, outer)
        )
        op = combined.op
        if local:
            op = ops.Filter(op, ast.conjoin(local), Scope(op.schema, outer))
        return op, leftover

    def _plan_table_ref(
        self,
        ref: ast.TableRef,
        available: list[ast.Expression],
        outer: Scope | None,
    ) -> _Relation:
        if isinstance(ref, ast.TableName):
            return self._plan_base_table(ref, available, outer)
        if isinstance(ref, ast.SubqueryRef):
            query = self._push_into_view(ref, available, outer)
            child = self.plan_query(query, outer)
            op = ops.Rename(child, ref.alias)
            return _Relation(op, frozenset({ref.alias.lower()}))
        if isinstance(ref, ast.Join):
            return self._plan_explicit_join(ref, available, outer)
        raise ExecutionError(f"unsupported FROM item {type(ref).__name__}")

    def _push_into_view(
        self,
        ref: ast.SubqueryRef,
        available: list[ast.Expression],
        outer: Scope | None,
    ) -> ast.Query:
        """Merge outer conjuncts into a projection-only derived table.

        A gateway ships every export as ``(SELECT t.a AS x, ... FROM t
        WHERE <export predicate>) AS e``.  Conjuncts over ``e`` alone are
        rewritten onto the view's own columns and ANDed with its WHERE, so
        ``_choose_access_path`` sees them and can use the local index.
        Only plain column projections qualify: anything that changes row
        multiplicity or order (DISTINCT, GROUP BY, HAVING, ORDER BY,
        LIMIT/OFFSET) or computes values keeps the conjuncts above it.
        """
        view = ref.query
        if (
            not available
            or not isinstance(view, ast.Select)
            or view.distinct
            or view.group_by
            or view.having is not None
            or view.order_by
            or view.limit is not None
            or view.offset is not None
            or not all(isinstance(i.expression, ast.ColumnRef) for i in view.items)
        ):
            return view
        scope = Scope(
            [OutputColumn(item.output_name, ref.alias) for item in view.items],
            outer,
        )
        pushed, available[:] = self._split_local(available, scope)
        if not pushed:
            return view

        def to_view_column(node: ast.Expression) -> ast.Expression:
            if isinstance(node, ast.ColumnRef):
                return view.items[scope.resolve(node.table, node.name)[1]].expression
            return node

        where = [ast.transform_expression(c, to_view_column) for c in pushed]
        if view.where is not None:
            where.insert(0, view.where)
        return dataclasses.replace(view, where=ast.conjoin(where))

    def _plan_base_table(
        self,
        ref: ast.TableName,
        available: list[ast.Expression],
        outer: Scope | None,
    ) -> _Relation:
        binding = ref.binding
        fragment = self.fragments.get(ref.name.lower())
        if fragment is not None:
            names = fragment.names
        else:
            table = self.catalog.get_table(ref.name)
            names = table.schema.column_names
        scope = Scope([OutputColumn(name, binding) for name in names], outer)
        local, leftover = self._split_local(available, scope)
        available[:] = leftover

        if fragment is not None:
            scan = self._choose_fragment_path(fragment, ref.name, binding, local)
        else:
            scan = self._choose_access_path(table, binding, local)
        op: ops.Operator = scan
        if local:
            op = ops.Filter(op, ast.conjoin(local), scope)
        return _Relation(op, frozenset({binding.lower()}))

    def _choose_access_path(
        self, table, binding: str, local: list[ast.Expression]
    ) -> ops.Operator:
        """Pick IndexScan when :func:`choose_index_probe` finds a conjunct.

        Consumes the predicate it absorbs from ``local``.
        """
        probe = choose_index_probe(local, indexed_columns(table))
        if probe is None:
            return ops.SeqScan(table, binding)
        position, column, op_name, value = probe
        local.pop(position)
        index = table.find_index([column])
        return ops.IndexScan(
            table, index.name, binding, **_probe_bounds(op_name, value)
        )

    def _choose_fragment_path(
        self,
        fragment: Fragment,
        name: str,
        binding: str,
        local: list[ast.Expression],
    ) -> ops.FragmentScan:
        """A fragment's access path: by key when :func:`choose_index_probe`
        picks its single key column and the key holds in the data (no NULL,
        no repeat), else a full scan.  Consumes the predicate it absorbs."""
        indexed = {}
        if len(fragment.key) == 1:
            (key,) = fragment.key
            indexed[key.lower()] = IndexedColumn(
                fragment.types[fragment.position(key)], ordered=True
            )
        probe = choose_index_probe(local, indexed)
        if probe is None or fragment.key_index() is None:
            return ops.FragmentScan(fragment, name, binding)
        position, _, op_name, value = probe
        local.pop(position)
        return ops.FragmentScan(
            fragment, name, binding, **_probe_bounds(op_name, value)
        )

    def _plan_explicit_join(
        self,
        ref: ast.Join,
        available: list[ast.Expression],
        outer: Scope | None,
    ) -> _Relation:
        # WHERE conjuncts may only be pushed below the *preserved* side of
        # an outer join; pushing below the null-supplying side would remove
        # rows before padding happens and change the result.
        no_push: list[ast.Expression] = []
        left_available = available
        right_available = available
        if ref.join_type is ast.JoinType.LEFT:
            right_available = no_push
        elif ref.join_type is ast.JoinType.RIGHT:
            left_available = no_push
        elif ref.join_type is ast.JoinType.FULL:
            left_available = no_push
            right_available = no_push
        left = self._plan_table_ref(ref.left, left_available, outer)
        right = self._plan_table_ref(ref.right, right_available, outer)
        bindings = left.bindings | right.bindings

        condition = ref.condition
        if ref.using:
            using_parts = [
                ast.BinaryOp(
                    "=",
                    _qualified(left.op.schema, column),
                    _qualified(right.op.schema, column),
                )
                for column in ref.using
            ]
            condition = ast.conjoin(using_parts)

        op = self._make_join(
            left.op, right.op, ref.join_type, condition, outer
        )
        return _Relation(op, bindings)

    def _make_join(
        self,
        left: ops.Operator,
        right: ops.Operator,
        join_type: ast.JoinType,
        condition: ast.Expression | None,
        outer: Scope | None,
    ) -> ops.Operator:
        combined_scope = Scope(left.schema + right.schema, outer)
        if condition is None or join_type is ast.JoinType.CROSS:
            return ops.NestedLoopJoin(
                left, right, join_type, condition, combined_scope
            )
        left_scope = Scope(left.schema, outer)
        right_scope = Scope(right.schema, outer)
        equi_left: list[ast.Expression] = []
        equi_right: list[ast.Expression] = []
        residual: list[ast.Expression] = []
        for conjunct in ast.split_conjuncts(condition):
            pair = _equi_pair(conjunct, left_scope, right_scope)
            if pair is not None:
                equi_left.append(pair[0])
                equi_right.append(pair[1])
            else:
                residual.append(conjunct)
        if equi_left:
            # Build the hash table on the (estimated) smaller input; the
            # output schema is unaffected (HashJoin handles either side).
            build_left = (
                join_type is ast.JoinType.INNER
                and _estimate_rows(left) < _estimate_rows(right)
            )
            return ops.HashJoin(
                left,
                right,
                equi_left,
                equi_right,
                join_type,
                ast.conjoin(residual),
                combined_scope,
                build_left=build_left,
            )
        return ops.NestedLoopJoin(left, right, join_type, condition, combined_scope)

    def _order_joins(
        self,
        relations: list[_Relation],
        available: list[ast.Expression],
        outer: Scope | None,
    ) -> _Relation:
        """Greedy ordering for implicit (comma) joins.

        Start from the first relation, repeatedly pick a joinable relation
        connected by an available equi-conjunct; fall back to cross joins.
        """
        remaining = list(relations)
        current = remaining.pop(0)
        while remaining:
            chosen_index = None
            for index, candidate in enumerate(remaining):
                if self._find_join_conjuncts(current, candidate, available):
                    chosen_index = index
                    break
            if chosen_index is None:
                chosen_index = 0
            candidate = remaining.pop(chosen_index)
            join_conjuncts = self._take_join_conjuncts(
                current, candidate, available
            )
            join_type = (
                ast.JoinType.INNER if join_conjuncts else ast.JoinType.CROSS
            )
            op = self._make_join(
                current.op,
                candidate.op,
                join_type,
                ast.conjoin(join_conjuncts),
                outer,
            )
            current = _Relation(op, current.bindings | candidate.bindings)
        return current

    def _find_join_conjuncts(
        self,
        left: _Relation,
        right: _Relation,
        available: list[ast.Expression],
    ) -> bool:
        combined = Scope(left.op.schema + right.op.schema)
        left_scope = Scope(left.op.schema)
        right_scope = Scope(right.op.schema)
        for conjunct in available:
            if not _resolves_locally(conjunct, combined):
                continue
            if _resolves_locally(conjunct, left_scope):
                continue
            if _resolves_locally(conjunct, right_scope):
                continue
            return True
        return False

    def _take_join_conjuncts(
        self,
        left: _Relation,
        right: _Relation,
        available: list[ast.Expression],
    ) -> list[ast.Expression]:
        combined = Scope(left.op.schema + right.op.schema)
        left_scope = Scope(left.op.schema)
        right_scope = Scope(right.op.schema)
        taken: list[ast.Expression] = []
        rest: list[ast.Expression] = []
        for conjunct in available:
            if (
                _resolves_locally(conjunct, combined)
                and not _resolves_locally(conjunct, left_scope)
                and not _resolves_locally(conjunct, right_scope)
            ):
                taken.append(conjunct)
            else:
                rest.append(conjunct)
        available[:] = rest
        return taken

    def _split_local(
        self, conjuncts: list[ast.Expression], scope: Scope
    ) -> tuple[list[ast.Expression], list[ast.Expression]]:
        """Partition conjuncts into (evaluable under scope, leftover)."""
        local: list[ast.Expression] = []
        leftover: list[ast.Expression] = []
        for conjunct in conjuncts:
            if _resolves_locally(conjunct, scope):
                local.append(conjunct)
            else:
                leftover.append(conjunct)
        return local, leftover

    # ------------------------------------------------------------------
    # Projections / aggregation
    # ------------------------------------------------------------------

    def _expand_stars(
        self, items: list[ast.SelectItem], schema: list[OutputColumn]
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expression, ast.Star):
                star = item.expression
                matched = False
                for column in schema:
                    if star.table is None or (
                        column.binding
                        and column.binding.lower() == star.table.lower()
                    ):
                        matched = True
                        expanded.append(
                            ast.SelectItem(
                                ast.ColumnRef(column.name, column.binding),
                                column.name,
                            )
                        )
                if not matched:
                    raise CatalogError(
                        f"no table {star.table!r} to expand in projection"
                    )
            else:
                expanded.append(item)
        return expanded

    def _normalise_order_items(
        self, order_by: list[ast.OrderItem], items: list[ast.SelectItem]
    ) -> list[ast.OrderItem]:
        """Resolve ordinal and alias references in ORDER BY."""
        normalised: list[ast.OrderItem] = []
        alias_map = {
            item.alias.lower(): item.expression for item in items if item.alias
        }
        for order in order_by:
            expression = order.expression
            if isinstance(expression, ast.Literal) and isinstance(
                expression.value, int
            ):
                position = expression.value
                if not 1 <= position <= len(items):
                    raise ExecutionError(
                        f"ORDER BY position {position} is out of range"
                    )
                expression = items[position - 1].expression
            elif (
                isinstance(expression, ast.ColumnRef)
                and expression.table is None
                and expression.name.lower() in alias_map
            ):
                expression = alias_map[expression.name.lower()]
            normalised.append(ast.OrderItem(expression, order.ascending))
        return normalised

    def _plan_aggregate(
        self,
        input_op: ops.Operator,
        input_scope: Scope,
        select: ast.Select,
        items: list[ast.SelectItem],
        order_items: list[ast.OrderItem],
        outer: Scope | None,
    ):
        group_exprs = list(select.group_by)
        # Allow GROUP BY output aliases (GROUP BY dept for SELECT x AS dept).
        alias_map = {
            item.alias.lower(): item.expression for item in items if item.alias
        }
        group_exprs = [
            alias_map.get(g.name.lower(), g)
            if isinstance(g, ast.ColumnRef) and g.table is None
            else g
            for g in group_exprs
        ]

        aggregate_calls: list[ast.FunctionCall] = []

        def collect(expr: ast.Expression) -> None:
            for node in ast.walk_expressions(expr):
                if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                    if node not in aggregate_calls:
                        aggregate_calls.append(node)

        for item in items:
            collect(item.expression)
        if select.having is not None:
            collect(select.having)
        for order in order_items:
            collect(order.expression)

        group_names = [f"__g{i}" for i in range(len(group_exprs))]
        agg_names = [f"__a{i}" for i in range(len(aggregate_calls))]
        agg_op = ops.HashAggregate(
            input_op,
            group_exprs,
            aggregate_calls,
            group_names + agg_names,
            input_scope,
        )
        agg_scope = Scope(agg_op.schema, outer)

        def rewrite(expr: ast.Expression) -> ast.Expression:
            def replace(node: ast.Expression) -> ast.Expression:
                if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                    return ast.ColumnRef(
                        agg_names[aggregate_calls.index(node)]
                    )
                for position, group in enumerate(group_exprs):
                    if node == group:
                        return ast.ColumnRef(group_names[position])
                return node

            # Replace whole-subtree group matches first (top-down), then
            # aggregates bottom-up.  transform_expression is bottom-up which
            # handles both: group-expr subtrees become refs when visited.
            return ast.transform_expression(expr, replace)

        rewritten_items = [
            ast.SelectItem(rewrite(item.expression), item.alias or item.output_name)
            for item in items
        ]
        rewritten_having = (
            rewrite(select.having) if select.having is not None else None
        )
        rewritten_order = [
            ast.OrderItem(rewrite(order.expression), order.ascending)
            for order in order_items
        ]
        return agg_op, agg_scope, rewritten_items, rewritten_having, rewritten_order

    def _resolve_order_keys(
        self,
        order_items: list[ast.OrderItem],
        schema: list[OutputColumn],
        _unused,
    ) -> tuple[list[ast.Expression], list[bool]]:
        keys: list[ast.Expression] = []
        ascending: list[bool] = []
        for order in order_items:
            expression = order.expression
            if isinstance(expression, ast.Literal) and isinstance(
                expression.value, int
            ):
                position = expression.value
                if not 1 <= position <= len(schema):
                    raise ExecutionError(
                        f"ORDER BY position {position} is out of range"
                    )
                expression = ast.ColumnRef(schema[position - 1].name)
            keys.append(expression)
            ascending.append(order.ascending)
        return keys, ascending


# ---------------------------------------------------------------------------
# Predicate analysis helpers
# ---------------------------------------------------------------------------


def _estimate_rows(op: ops.Operator) -> float:
    """Coarse cardinality estimate for build-side selection."""
    if isinstance(op, ops.SeqScan):
        return float(op.table.row_count)
    if isinstance(op, ops.IndexScan):
        if op.equal_key is not None:
            return max(
                op.table.row_count / max(op.index.distinct_keys, 1), 1.0
            )
        return op.table.row_count / 3.0
    if isinstance(op, ops.FragmentScan):
        if op.equal_key is not None:
            return 1.0  # a probe of a unique key
        rows = float(op.fragment.length)
        return rows / 3.0 if op.probes else rows
    if isinstance(op, ops.ValuesScan):
        return float(len(op._rows))
    if isinstance(op, ops.Filter):
        return _estimate_rows(op.child) / 3.0
    if isinstance(op, ops.Rename):
        return _estimate_rows(op.child)
    if isinstance(op, (ops.HashJoin, ops.NestedLoopJoin)):
        return max(
            _estimate_rows(op.left), _estimate_rows(op.right)
        )
    if isinstance(op, ops.Limit) and op.limit is not None:
        return float(op.limit)
    children = op._children()
    if children:
        return _estimate_rows(children[0])
    return 1000.0


#: Plans whose scans feed at least this many rows run batch-at-a-time
#: (:mod:`repro.engine.columnar`); smaller ones run row-at-a-time.
#: Measured as plan + execute per statement on one table, CPython 3.11,
#: 2 vCPUs: the two paths break even at 12-24 input rows across
#: view-filter, filter, GROUP BY and hash-join shapes, and batch is
#: 1.1-1.9x faster at 32 rows and 4-5x at 256.  A one-row primary-key
#: probe pays about 15 us (20 %) more as a batch.
BATCH_MIN_ROWS = 32


def prefers_batch(plan: ops.Operator) -> bool:
    """Whether ``plan`` should run batch-at-a-time rather than row-at-a-time.

    A LIMIT over a streaming input stays on rows: the row path stops
    pulling its scans once the limit is met, while a batch reads them
    whole, so batching it would scan (and charge) more rows.
    """
    rows = _scan_rows(plan, under_limit=False)
    return rows is not None and rows >= BATCH_MIN_ROWS


def _scan_rows(op: ops.Operator, under_limit: bool) -> float | None:
    """Estimated rows ``op``'s leaves feed in, or None if a LIMIT above
    could stop a leaf early (``under_limit``: no Sort or aggregate in
    between to consume the leaf whole first)."""
    if isinstance(op, ops.LEAVES):
        return None if under_limit else _estimate_rows(op)
    if isinstance(op, (ops.Sort, ops.HashAggregate)):
        under_limit = False
    elif isinstance(op, ops.Limit) and op.limit is not None:
        under_limit = True
    total = 0.0
    for child in op._children():
        rows = _scan_rows(child, under_limit)
        if rows is None:
            return None
        total += rows
    return total


def _resolves_locally(expr: ast.Expression, scope: Scope) -> bool:
    """True if every column ref resolves at depth 0 and no subquery appears."""
    for node in ast.walk_expressions(expr):
        if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
            return False
        if isinstance(node, ast.ColumnRef):
            resolved = scope.try_resolve(node.table, node.name)
            if resolved is None or resolved[0] != 0:
                return False
        if isinstance(node, ast.Star):
            return False
    return True


@dataclass(frozen=True)
class IndexedColumn:
    """What the access-path choice knows of a column an index covers."""

    datatype: DataType
    #: The index answers range scans, not only equality probes.
    ordered: bool


def indexed_columns(table) -> dict[str, IndexedColumn]:
    """Lower-cased name -> facts, for each column a single-column index covers."""
    return {
        column.name.lower(): IndexedColumn(
            column.datatype, isinstance(index, OrderedIndex)
        )
        for column in table.schema.columns
        if (index := table.find_index([column.name])) is not None
    }


#: Literal types an index looks up by Python ``==`` and ``<`` with the same
#: outcome as SQL comparison (``compare_values``), per declared column type.
_PROBE_TYPES: dict[TypeKind, tuple[type, ...]] = {
    TypeKind.INTEGER: (int, float),
    TypeKind.FLOAT: (int, float),
    TypeKind.DECIMAL: (int, Decimal),
    TypeKind.VARCHAR: (str,),
    TypeKind.BOOLEAN: (bool,),
    TypeKind.DATE: (datetime.date,),
    TypeKind.TIMESTAMP: (datetime.datetime,),
}


def _probe_matches(datatype: DataType, value: object) -> bool:
    if isinstance(value, bool) != (datatype.kind is TypeKind.BOOLEAN):
        return False
    if isinstance(value, datetime.datetime) and datatype.kind is TypeKind.DATE:
        return False
    return isinstance(value, _PROBE_TYPES.get(datatype.kind, ()))


def choose_index_probe(
    conjuncts: list[ast.Expression], indexed: Mapping[str, IndexedColumn]
) -> tuple[int, str, str, object] | None:
    """The ``col <op> literal`` conjunct an index answers, if any.

    Returns (position in ``conjuncts``, column, op, literal).  An equality
    wins over a range wherever the two appear; a range needs an ordered
    index.  A literal of another type than the column's (``acct = '57'``
    on an INTEGER key) stays in the filter: SQL comparison coerces it, an
    index key lookup would not.  The component planner and the federation
    cost model both call this, so they agree on which fetch is a probe.
    """
    best = None
    for position, conjunct in enumerate(conjuncts):
        match = _constant_comparison(conjunct)
        if match is None:
            continue
        column, op_name, value = match
        entry = indexed.get(column.lower())
        if entry is None or not _probe_matches(entry.datatype, value):
            continue
        if op_name == "=":
            return position, column, op_name, value
        if best is None and entry.ordered:
            best = position, column, op_name, value
    return best


def _probe_bounds(op_name: str, value: object) -> dict[str, object]:
    """An index scan's bounds for the conjunct ``column <op_name> value``."""
    if op_name == "=":
        return {"equal_key": (value,)}
    if op_name in ("<", "<="):
        return {"high": (value,), "high_inclusive": op_name == "<="}
    return {"low": (value,), "low_inclusive": op_name == ">="}


def _constant_comparison(
    expr: ast.Expression,
) -> tuple[str, str, object] | None:
    """Match ``col <op> literal`` (either side); returns (column, op, value)."""
    if not isinstance(expr, ast.BinaryOp):
        return None
    if expr.op not in ("=", "<", "<=", ">", ">="):
        return None
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    if isinstance(expr.left, ast.ColumnRef) and isinstance(expr.right, ast.Literal):
        if expr.right.value is None:
            return None
        return expr.left.name, expr.op, expr.right.value
    if isinstance(expr.right, ast.ColumnRef) and isinstance(expr.left, ast.Literal):
        if expr.left.value is None:
            return None
        return expr.right.name, flipped[expr.op], expr.left.value
    return None


def _equi_pair(
    conjunct: ast.Expression, left_scope: Scope, right_scope: Scope
) -> tuple[ast.Expression, ast.Expression] | None:
    """Match an equi-join conjunct; returns (left_expr, right_expr)."""
    if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
        return None
    if _resolves_locally(conjunct.left, left_scope) and _resolves_locally(
        conjunct.right, right_scope
    ):
        return conjunct.left, conjunct.right
    if _resolves_locally(conjunct.left, right_scope) and _resolves_locally(
        conjunct.right, left_scope
    ):
        return conjunct.right, conjunct.left
    return None


def _qualified(schema: list[OutputColumn], column: str) -> ast.ColumnRef:
    for output in schema:
        if output.name.lower() == column.lower():
            return ast.ColumnRef(output.name, output.binding)
    raise CatalogError(f"USING column {column!r} not found")
