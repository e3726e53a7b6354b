"""Wire-schema consistency pass: the frame catalog is closed and complete.

The provider RPC surface is declared once, as the ``PROVIDER_OPS`` table
in ``core/wire.py``; the request schemas, the channel methods and the
endpoint dispatch are derived from it.  What the table cannot make true by
construction is checked here, by cross-reading the ASTs:

1. tag values are unique within each namespace (request op, reply kind,
   error status), and every error status is listed in
   ``_PROVIDER_ERROR_STATUSES``;
2. every declared ``PROV_*`` request tag has exactly one ``PROVIDER_OPS``
   row;
3. every field kind used by an op row or a reply schema has an encoder, a
   decoder, and a hypothesis strategy in ``tests/test_wire_properties.py``
   (``_FIELD_STRATEGIES``), so the fuzz suite actually generates it;
4. every request op has a row in the ARCHITECTURE.md frame catalog.

Every finding is anchored in ``wire.py`` where the tag or kind is declared.
Rule id: ``wire-schema`` (suppression alias ``wire``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lintkit.engine import Finding, LintPass, ScanContext, SourceFile


class WireSchemaPass(LintPass):
    """Cross-checks the PROV_* frame catalog across code, tests, and docs."""

    name = "wire"
    rules = ("wire-schema",)

    def __init__(
        self,
        wire_rel: str = "src/repro/core/wire.py",
        tests_rel: str = "tests/test_wire_properties.py",
        docs_rel: str = "docs/ARCHITECTURE.md",
    ) -> None:
        self._wire_rel = wire_rel
        self._tests_rel = tests_rel
        self._docs_rel = docs_rel

    def run(self, ctx: ScanContext) -> List[Finding]:
        wire = ctx.get(self._wire_rel) or ctx.load(self._wire_rel)
        if wire is None or wire.tree is None:
            return []  # nothing to check in this tree (e.g. fixture scans)
        model = _WireModel(wire)
        findings = model.self_checks()
        findings += self._check_strategies(ctx, model)
        findings += self._check_docs(ctx, model)
        return sorted(set(findings))

    def _check_strategies(self, ctx: ScanContext, model: "_WireModel") -> List[Finding]:
        tests = ctx.get(self._tests_rel) or ctx.load(self._tests_rel)
        strategies = next((
            _dict_key_strings(node.value)
            for node in (tests.tree.body if tests and tests.tree else ())
            if _single_target(node) == "_FIELD_STRATEGIES"
        ), None)
        if strategies is None:
            return [model.finding(
                f"cannot cross-check fuzz strategies: no _FIELD_STRATEGIES"
                f" table in {self._tests_rel}"
            )]
        return [
            model.finding(
                f"field kind '{kind}' has no hypothesis strategy in"
                f" _FIELD_STRATEGIES ({self._tests_rel}) — the fuzz suite"
                " will never generate it",
                line=line,
            )
            for kind, line in sorted(model.field_kinds.items())
            if kind not in strategies
        ]

    def _check_docs(self, ctx: ScanContext, model: "_WireModel") -> List[Finding]:
        path = ctx.root / self._docs_rel
        if not path.is_file():
            return [model.finding(
                f"cannot cross-check the frame catalog: {self._docs_rel} not found"
            )]
        table_rows = [
            line for line in path.read_text().splitlines() if line.lstrip().startswith("|")
        ]
        return [
            model.finding(
                f"request op {name} has no catalog row in {self._docs_rel}", line=line
            )
            for name, (_, line) in model.requests.items()
            if not any(f"`{name}`" in row for row in table_rows)
        ]


class _WireModel:
    """Everything the pass needs out of wire.py's module-level AST."""

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        # One table per tag namespace: tag name -> (value, declaring line).
        self.requests: Dict[str, Tuple[int, int]] = {}
        self.replies: Dict[str, Tuple[int, int]] = {}
        self.errors: Dict[str, Tuple[int, int]] = {}
        self.error_statuses: Optional[Set[str]] = None
        self.encoders: Optional[Set[str]] = None
        self.decoders: Optional[Set[str]] = None
        self.op_rows: Optional[List[str]] = None  # the request tag of each row
        self.field_kinds: Dict[str, int] = {}  # kind -> first declaring line
        self._scan(source.tree)

    def finding(self, message: str, line: int = 1) -> Finding:
        return Finding(path=self.source.rel, line=line, rule="wire-schema", message=message)

    def _scan(self, tree: ast.Module) -> None:
        for node in tree.body:
            target = _single_target(node)
            if target is None:
                continue
            value = node.value
            if target.startswith("PROV_") and isinstance(value, ast.Constant) \
                    and isinstance(value.value, int):
                if target.startswith("PROV_REPLY_"):
                    table = self.replies
                elif target.startswith("PROV_ERR_"):
                    table = self.errors
                else:
                    table = self.requests
                table[target] = (value.value, node.lineno)
            elif target == "_PROVIDER_ERROR_STATUSES" and isinstance(
                value, (ast.Tuple, ast.List)
            ):
                self.error_statuses = {
                    elt.id for elt in value.elts if isinstance(elt, ast.Name)
                }
            elif target == "_FIELD_ENCODERS":
                self.encoders = _dict_key_strings(value)
            elif target == "_FIELD_DECODERS":
                self.decoders = _dict_key_strings(value)
            elif target == "PROVIDER_OPS" and isinstance(value, (ast.Tuple, ast.List)):
                self.op_rows = [
                    row.args[0].id for row in value.elts
                    if isinstance(row, ast.Call) and row.args
                    and isinstance(row.args[0], ast.Name)
                ]
                self._collect_kinds(value)
            elif target == "PROVIDER_REPLY_SCHEMAS":
                self._collect_kinds(value)

    def _collect_kinds(self, value: ast.expr) -> None:
        """Record the kind of every ``(name, kind)`` string pair under ``value``."""
        for pair in ast.walk(value):
            if isinstance(pair, ast.Tuple) and len(pair.elts) == 2 and all(
                isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                for elt in pair.elts
            ):
                self.field_kinds.setdefault(pair.elts[1].value, pair.lineno)

    def self_checks(self) -> List[Finding]:
        findings: List[Finding] = []
        for label, tags in (
            ("request op", self.requests),
            ("reply kind", self.replies),
            ("error status", self.errors),
        ):
            seen: Dict[int, str] = {}
            for name, (value, line) in tags.items():
                if value in seen:
                    findings.append(self.finding(
                        f"{label} {name} reuses tag value {value}"
                        f" (already taken by {seen[value]})",
                        line=line,
                    ))
                else:
                    seen[value] = name
        if self.op_rows is None:
            findings.append(self.finding("PROVIDER_OPS table not found or not a tuple literal"))
        else:
            for name, (_, line) in self.requests.items():
                count = self.op_rows.count(name)
                if count != 1:
                    rows = f"{count} PROVIDER_OPS rows" if count else "no PROVIDER_OPS row"
                    findings.append(self.finding(f"request op {name} has {rows}", line=line))
        if self.error_statuses is not None:
            for name, (_, line) in self.errors.items():
                if name not in self.error_statuses:
                    findings.append(self.finding(
                        f"error status {name} is missing from"
                        " _PROVIDER_ERROR_STATUSES (decoders will reject it)",
                        line=line,
                    ))
        for kind, line in sorted(self.field_kinds.items()):
            for table_name, table in (
                ("_FIELD_ENCODERS", self.encoders), ("_FIELD_DECODERS", self.decoders)
            ):
                if table is not None and kind not in table:
                    findings.append(self.finding(
                        f"field kind '{kind}' has no entry in {table_name}", line=line
                    ))
        return findings

def _single_target(node: ast.stmt) -> Optional[str]:
    """Name of a simple module-level ``NAME = ...`` / annotated assignment."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1 \
            and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
            and node.value is not None:
        return node.target.id
    return None


def _dict_key_strings(value: Optional[ast.expr]) -> Optional[Set[str]]:
    """Keys of a dict literal, as string constants (None if not a dict)."""
    if not isinstance(value, ast.Dict):
        return None
    return {
        key.value
        for key in value.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }
