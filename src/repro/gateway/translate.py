"""Query translation: export-relation names → local-table subqueries.

The federation layer composes SQL over *export* relation names.  A gateway
rewrites each export reference into the equivalent derived table over the
local schema (projection + renaming + row predicate), then renders the whole
statement in the component DBMS's dialect.  The fragment's own predicates
stay outside the derived table here, so the shipped text is a plain rewrite;
the component's planner pushes them through the projection-only view onto
its local indexes (``LocalPlanner._push_into_view``).
"""

from __future__ import annotations

from repro.gateway.exports import ExportSchema
from repro.sql import ast


def rewrite_exports(query: ast.Query, exports: ExportSchema) -> ast.Query:
    """Return a copy of ``query`` with export names replaced by local views."""
    if isinstance(query, ast.SetOperation):
        return ast.SetOperation(
            query.kind,
            rewrite_exports(query.left, exports),
            rewrite_exports(query.right, exports),
            list(query.order_by),
            query.limit,
            query.offset,
        )
    return _rewrite_select(query, exports)


def _rewrite_select(select: ast.Select, exports: ExportSchema) -> ast.Select:
    rewritten = ast.Select(
        items=[
            ast.SelectItem(_rewrite_expr(i.expression, exports), i.alias)
            for i in select.items
        ],
        from_clause=[_rewrite_ref(r, exports) for r in select.from_clause],
        where=_rewrite_expr(select.where, exports)
        if select.where is not None
        else None,
        group_by=[_rewrite_expr(g, exports) for g in select.group_by],
        having=_rewrite_expr(select.having, exports)
        if select.having is not None
        else None,
        order_by=[
            ast.OrderItem(_rewrite_expr(o.expression, exports), o.ascending)
            for o in select.order_by
        ],
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )
    return rewritten


def _rewrite_ref(ref: ast.TableRef, exports: ExportSchema) -> ast.TableRef:
    if isinstance(ref, ast.TableName):
        if exports.has(ref.name):
            relation = exports.get(ref.name)
            return ast.SubqueryRef(relation.as_query(), ref.binding)
        return ref
    if isinstance(ref, ast.SubqueryRef):
        return ast.SubqueryRef(rewrite_exports(ref.query, exports), ref.alias)
    if isinstance(ref, ast.Join):
        return ast.Join(
            _rewrite_ref(ref.left, exports),
            _rewrite_ref(ref.right, exports),
            ref.join_type,
            _rewrite_expr(ref.condition, exports)
            if ref.condition is not None
            else None,
            list(ref.using),
        )
    return ref


def _rewrite_expr(expr: ast.Expression, exports: ExportSchema) -> ast.Expression:
    def replace(node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.InSubquery):
            return ast.InSubquery(
                node.operand, rewrite_exports(node.query, exports), node.negated
            )
        if isinstance(node, ast.Exists):
            return ast.Exists(rewrite_exports(node.query, exports), node.negated)
        if isinstance(node, ast.ScalarSubquery):
            return ast.ScalarSubquery(rewrite_exports(node.query, exports))
        return node

    return ast.transform_expression(expr, replace)
